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
		tab, err := results(r, "RDMA results", "tomcatv", RDMAExperiments(), "rdma-baseline")
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

// TestRDMACellsOnEveryPath: an rdma cell runs on its own machine on every
// path — measured, instrumented and predicted — so each rdma key's
// critical path finishes when its cell does, and its prediction counts
// the cell's messages and bytes.
func TestRDMACellsOnEveryPath(t *testing.T) {
	r := NewRunner(16)
	r.Quick = true
	for _, key := range RDMAExpKeys() {
		c, err := r.Cell("tomcatv", key)
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.CritpathFor("tomcatv", key)
		if err != nil {
			t.Fatal(err)
		}
		if p.Finish != c.Time {
			t.Errorf("%s: critical path finishes at %v, cell at %v", key, p.Finish, c.Time)
		}
		pred, err := r.predict(r.gridCell("tomcatv", key))
		if err != nil {
			t.Fatal(err)
		}
		if pred.Messages != c.Messages || pred.BytesSent != c.Bytes {
			t.Errorf("%s: predicted %d messages, %d bytes; cell has %d, %d",
				key, pred.Messages, pred.BytesSent, c.Messages, c.Bytes)
		}
	}
}
