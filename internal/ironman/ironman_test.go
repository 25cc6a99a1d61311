package ironman

import "testing"

// TestFigure5Contents checks the binding table against the paper, row by
// row in the figure's order.
func TestFigure5Contents(t *testing.T) {
	want := []Binding{
		{"Intel Paragon", "message passing", "no-op", "csend", "crecv", "no-op"},
		{"Intel Paragon", "asynchronous", "irecv", "isend", "msgwait", "msgwait"},
		{"Intel Paragon", "callback", "hprobe", "hsend", "hrecv", "msgwait"},
		{"Cray T3D", "PVM", "no-op", "pvm_send", "pvm_recv", "no-op"},
		{"Cray T3D", "SHMEM", "synch", "shmem_put", "synch", "no-op"},
	}
	if len(Bindings) != len(want) {
		t.Fatalf("bindings = %d rows, want %d", len(Bindings), len(want))
	}
	for i, w := range want {
		if Bindings[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, Bindings[i], w)
		}
	}
}
