package experiments

import (
	"bytes"
	"testing"
)

// TestRDMATableDeterministic pins that the RDMA ladder is a pure
// function of its inputs: two fresh runners must render byte-identical
// output. The cells run concurrently inside each runner, so this also
// guards the worker pool against scheduling-dependent results.
func TestRDMATableDeterministic(t *testing.T) {
	render := func() []byte {
		r := NewRunner(16)
		r.Quick = true
		var buf bytes.Buffer
		tab, err := RDMATable(r, "tomcatv")
		if err != nil {
			t.Fatal(err)
		}
		tab.Render(&buf)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("RDMA table not deterministic:\n%s\n--- vs ---\n%s", a, b)
	}
}
