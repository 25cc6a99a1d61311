// Package ironman describes the IRONMAN communication interface: the four
// calls (DR, SR, DN, SV) that demarcate where a data transfer may occur,
// and the per-platform bindings of those calls to library primitives
// (Figure 5 of the paper). The behavioral realization of each binding
// lives in the machine cost models (package machine) and the runtime
// (package rt); this package carries the nomenclature and binding tables.
package ironman

// Binding records how the four IRONMAN calls map onto one communication
// library's primitives. "no-op" marks calls that compile away.
type Binding struct {
	Machine string
	Library string
	DR      string // destination ready
	SR      string // source ready
	DN      string // destination needed
	SV      string // source volatile
}

// Bindings reproduces Figure 5: the IRONMAN bindings on the Paragon and
// the T3D.
var Bindings = []Binding{
	{Machine: "Intel Paragon", Library: "message passing", DR: "no-op", SR: "csend", DN: "crecv", SV: "no-op"},
	{Machine: "Intel Paragon", Library: "asynchronous", DR: "irecv", SR: "isend", DN: "msgwait", SV: "msgwait"},
	{Machine: "Intel Paragon", Library: "callback", DR: "hprobe", SR: "hsend", DN: "hrecv", SV: "msgwait"},
	{Machine: "Cray T3D", Library: "PVM", DR: "no-op", SR: "pvm_send", DN: "pvm_recv", SV: "no-op"},
	{Machine: "Cray T3D", Library: "SHMEM", DR: "synch", SR: "shmem_put", DN: "synch", SV: "no-op"},
}
