package ir

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzCompile holds the front end to any input: Compile returns rather
// than panics, and every line of its error starts with the source's name,
// as every command prints it. The seeds are every ZPL program in the
// repository; go test runs only them, go test -fuzz FuzzCompile grows
// more.
func FuzzCompile(f *testing.F) {
	for _, glob := range []string{"../programs/src/*.zpl", "../../examples/zpl/*.zpl", "../../testdata/regress/*.zpl"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seeds in %s: %v", glob, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _, err := Compile("in.zpl", src)
		if err == nil {
			return
		}
		for _, line := range strings.Split(err.Error(), "\n") {
			if !strings.HasPrefix(line, "in.zpl:") {
				t.Errorf("error line %q does not start with the source's name", line)
			}
		}
	})
}
