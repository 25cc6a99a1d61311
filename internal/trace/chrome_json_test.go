package trace

import (
	"encoding/json"
	"math"
	"testing"
)

// appendJSONString and appendJSONFloat render what encoding/json renders,
// on the strings and magnitudes where its rules branch: HTML-sensitive and
// control bytes, invalid UTF-8, the two JavaScript line separators, and
// the exponent cut-offs at 1e-6 and 1e21.
func TestChromeScalarsMatchEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", "a := B@east", "+<< A", "x > y && z", `quote " and \ backslash`,
		"tab\there\nnewline\rcr\bbs\fff", "\x00\x01\x1f\x7f", "bad \xff utf8 \xc3",
		"é ü 中", "line\u2028para\u2029", "proc 0 (0,0)",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("%q: got %s, encoding/json %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, 1, -1, 0.001, 0.5, 123.456, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 1e20, 1e21, 1.25e22,
		-3e-8, 4096.000001, 1e9 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); string(got) != string(want) {
			t.Errorf("%v: got %s, encoding/json %s", f, got, want)
		}
	}
}
