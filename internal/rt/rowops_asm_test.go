package rt

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestWideRowsKeepGoArithmetic: each element of a wide row sees the IEEE
// operation of the Go loop it replaces. A product stays a rounded double
// and a reduction folds in row-major order, so neither a fused
// multiply-add (VFMADD…, VFNMADD…) nor a horizontal add (…HADD…) belongs
// in the assembly. The file is read as text, so the check holds on every
// GOARCH.
func TestWideRowsKeepGoArithmetic(t *testing.T) {
	src, err := os.ReadFile("rowops_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	banned := regexp.MustCompile(`VFM|VFNM|HADD`)
	for i, line := range strings.Split(string(src), "\n") {
		if banned.MatchString(line) {
			t.Errorf("rowops_amd64.s:%d: %s", i+1, strings.TrimSpace(line))
		}
	}
}
