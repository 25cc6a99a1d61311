// Package machine defines the simulated target machines and their
// communication libraries as software-overhead cost models.
//
// The paper's phenomena are driven by per-call software overheads, a
// per-byte software cost on the send/receive paths (whose sum fixes the
// 512-double combining knee of Figure 6), a small overlappable wire
// latency, and — for the prototype SHMEM binding — heavyweight rendezvous
// synchronization that couples the two parties' clocks on every call site.
// The parameters below are calibrated to reproduce the paper's shapes, not
// its absolute numbers (see EXPERIMENTS.md).
package machine

import (
	"fmt"
	"sort"

	"commopt/internal/vtime"
)

// Lib models one communication library binding's costs and semantics.
type Lib struct {
	Name string

	// Fixed software overheads charged on the calling processor.
	DRCost vtime.Duration // destination-ready call
	SRCost vtime.Duration // send initiation
	DNCost vtime.Duration // receive completion (excluding waiting)
	SVCost vtime.Duration // source-volatile wait

	// Per-byte software costs (ns/byte). SRPerByte is charged on the
	// sender during SR (injection/packing); DNPerByte on the receiver
	// during DN (drain/copy). Their sum is the slope of the Figure 6
	// exposed-overhead curve.
	SRPerByte float64
	DNPerByte float64

	// Wire transfer: a message sent at time t is available at the
	// destination at t + Latency + bytes*WirePerByte. This part overlaps
	// with computation (what pipelining hides).
	Latency     vtime.Duration
	WirePerByte float64

	// Rendezvous marks one-way (put-based) libraries: DR notifies the
	// source that the destination buffer is ready, and SR blocks until
	// that notification arrives before putting.
	Rendezvous bool

	// UnconditionalSynch models the paper's prototype SHMEM binding whose
	// "synchronizations are unnecessarily heavy-weight": DR/SR/DN
	// synchronize with the partner even when the transfer carries no data
	// for this processor pair. SynchEmptyCost is the (smaller) overhead
	// charged for such an empty synchronization.
	UnconditionalSynch bool
	SynchEmptyCost     vtime.Duration
}

// FixedOverhead is the size-independent exposed cost of one transfer
// (every call's fixed cost).
func (l *Lib) FixedOverhead() vtime.Duration {
	return l.DRCost + l.SRCost + l.DNCost + l.SVCost
}

// ExposedPerByte is the per-byte exposed (software) cost of one transfer.
func (l *Lib) ExposedPerByte() float64 { return l.SRPerByte + l.DNPerByte }

// KneeBytes returns the message size at which the total per-byte cost
// (software plus wire — combining merges fixed overheads but still moves
// every byte) equals the fixed overhead. Beyond it, combining no longer
// pays noticeably: Figure 6's knee, about 512 doubles on both machines.
func (l *Lib) KneeBytes() int {
	pb := l.ExposedPerByte() + l.WirePerByte
	if pb <= 0 {
		return 0
	}
	return int(float64(l.FixedOverhead()) / pb)
}

// PerByteDur converts a ns/byte rate and byte count to a duration.
func PerByteDur(rate float64, bytes int) vtime.Duration {
	return vtime.Duration(rate * float64(bytes))
}

// Machine is a simulated parallel computer.
type Machine struct {
	Name             string
	ClockMHz         float64
	TimerGranularity vtime.Duration

	// OpTime is the per-element, per-arithmetic-op compute cost used by
	// the runtime's compute model; StmtOverhead is charged once per array
	// statement execution (loop setup).
	OpTime       vtime.Duration
	StmtOverhead vtime.Duration

	// Jitter is the fractional variance of per-statement compute time,
	// realized by a deterministic per-processor pseudo-random stream. It
	// models cache effects and system noise: without it a perfectly
	// synchronous simulation has no processor skew, so synchronous
	// communication never waits and pipelining has nothing to hide.
	Jitter float64

	Libs map[string]*Lib
}

// Lib returns the named library model or an error listing the choices.
func (m *Machine) Lib(name string) (*Lib, error) {
	if l, ok := m.Libs[name]; ok {
		return l, nil
	}
	return nil, fmt.Errorf("machine %s: unknown library %q (have %v)", m.Name, name, m.LibNames())
}

func us(v float64) vtime.Duration { return vtime.FromMicros(v) }

// Paragon returns the Intel Paragon model (50 MHz i860, NX library).
// Exposed overheads: csend/crecv ~90us fixed; the asynchronous
// isend/irecv primitives do not reduce the exposed overhead and the
// hsend/hrecv callback primitives increase it, matching Section 3.2.
func Paragon() *Machine {
	return &Machine{
		Name:             "Intel Paragon",
		ClockMHz:         50,
		TimerGranularity: 100, // ~100 ns
		OpTime:           90,  // ns per arithmetic op per element
		StmtOverhead:     us(3),
		Jitter:           0.08,
		Libs: map[string]*Lib{
			"csend": {
				Name:   "csend/crecv",
				SRCost: us(46), DNCost: us(44),
				SRPerByte: 11.0, DNPerByte: 11.0,
				Latency: us(8), WirePerByte: 14.0,
			},
			"isend": {
				Name:   "isend/irecv",
				DRCost: us(10), SRCost: us(40), DNCost: us(32), SVCost: us(8),
				SRPerByte: 11.0, DNPerByte: 11.0,
				Latency: us(8), WirePerByte: 14.0,
			},
			"hsend": {
				Name:   "hsend/hrecv",
				DRCost: us(25), SRCost: us(60), DNCost: us(50), SVCost: us(10),
				SRPerByte: 12.0, DNPerByte: 12.0,
				Latency: us(8), WirePerByte: 14.0,
			},
		},
	}
}

// T3D returns the Cray T3D model (150 MHz Alpha EV4, PVM and SHMEM).
// SHMEM's exposed overhead is ~10% below PVM's at small sizes, but its
// prototype synchronization is heavyweight and unconditional, penalizing
// programs with serialized phases (Section 3.3.2).
func T3D() *Machine {
	return &Machine{
		Name:             "Cray T3D",
		ClockMHz:         150,
		TimerGranularity: 150, // ~150 ns
		OpTime:           50,  // ns per arithmetic op per element (memory-bound stencil code)
		StmtOverhead:     us(1.5),
		Jitter:           0.08,
		Libs: map[string]*Lib{
			"pvm": {
				Name:   "PVM",
				SRCost: us(85), DNCost: us(75),
				SRPerByte: 20.0, DNPerByte: 19.0,
				Latency: us(5), WirePerByte: 30.0, // shared network/DMA path; PVM transport adds latency
			},
			"shmem": {
				Name:   "SHMEM",
				DRCost: us(65), SRCost: us(12), DNCost: us(67),
				SRPerByte: 14.0, DNPerByte: 0, // put injects directly: little software per byte
				Latency: us(1), WirePerByte: 48.0, // ...the DMA itself rides the wire (hideable)
				Rendezvous: true, UnconditionalSynch: true,
				SynchEmptyCost: us(1),
			},
		},
	}
}

// RDMA returns a modern RDMA-capable cluster model (one-sided verbs
// puts over a ~100 Gb/s fabric). Relative to the T3D's SHMEM prototype,
// the asymmetry the paper's optimizations exploit has collapsed: posting
// a put costs well under a microsecond, registration makes the transfer
// zero-copy (no per-byte software cost on either side), and the only
// heavyweight call left is the completion/notification the destination
// needs before it may read (SVCost on the source models the fenced
// write-with-notification). Fixed overheads are ~100x smaller than the
// 1990s libraries while wire bandwidth is ~400x higher, so the combining
// knee drops to ~17 KB-equivalent but the *ratio* of fixed cost to
// per-byte cost stays within an order of magnitude of the T3D's — which
// is exactly what the rdma experiment (cmd/icpp97 -exp rdma) quantifies.
func RDMA() *Machine {
	return &Machine{
		Name:             "RDMA cluster",
		ClockMHz:         2500,
		TimerGranularity: 10, // ~10 ns
		OpTime:           1,  // ns per arithmetic op per element (memory-bound)
		StmtOverhead:     us(0.2),
		Jitter:           0.08,
		Libs: map[string]*Lib{
			"verbs": {
				Name:   "RDMA verbs (one-sided put)",
				DRCost: us(0.05), SRCost: us(0.4), DNCost: us(0.05), SVCost: us(0.9),
				SRPerByte: 0, DNPerByte: 0, // registered memory: zero-copy both sides
				Latency: us(1.2), WirePerByte: 0.08, // ~100 Gb/s fabric
			},
		},
	}
}

// LibNames returns the machine's library binding names, sorted.
func (m *Machine) LibNames() []string {
	names := make([]string, 0, len(m.Libs))
	for n := range m.Libs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every simulated machine model the paper's default outputs
// cover, in a fixed order. The RDMA extension model is reachable by name
// only, so the default figures and tables stay exactly the paper's.
func All() []*Machine { return []*Machine{Paragon(), T3D()} }

// ByName returns a machine model by short name.
func ByName(name string) (*Machine, error) {
	switch name {
	case "paragon":
		return Paragon(), nil
	case "t3d":
		return T3D(), nil
	case "rdma":
		return RDMA(), nil
	}
	return nil, fmt.Errorf("machine: unknown machine %q (have paragon, t3d, rdma)", name)
}
