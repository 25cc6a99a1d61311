package main

import (
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A yardstick is a fixed piece of work of the benchmark's own — no code of
// the repository runs in it — timed right after every repetition.
// The host this benchmark runs on is a few cores of a shared machine
// whose speed shifts by 20-40 % for minutes at a time (README.md, "Why
// times are normalised"). The yardstick slows down with it, so a
// repetition's time over the yardstick's slowdown is steady where the
// repetition's time alone is not.
//
// One lane per thread of the process model runs at once, because the
// workloads keep every thread busy and interference may hit one core
// only. A lane does three kinds of work for the same nominal time each,
// because the host slows in more than one way and no single kind followed
// all four workloads: a 5-point stencil over a cache-resident grid (the
// core), a pointer chase through 16 MiB (memory latency) and a sum over
// 32 MiB (memory bandwidth). The two large buffers are mapped outside the
// Go heap: the collector of the program under test must not see them, or
// its pacing would change.
type yardstick struct {
	lanes []yardLane
}

type yardLane struct {
	grid, next []float64 // yardGrid x yardGrid
	chain      []uint32  // one cycle through all of its entries
	stream     []float64
	at         uint32
	sink       float64
}

const (
	yardGrid   = 256     // 2 x 512 KiB per lane, inside a 4 MiB L2
	yardChain  = 4 << 20 // entries: 16 MiB per lane
	yardStream = 4 << 20 // entries: 32 MiB per lane

	// What one sweep of the grid, one hop of the chase and one element of
	// the sum take on the 2.1 GHz host the benchmark was written on, when
	// it is quiet, in nanoseconds: the units of the slowdown.
	yardSweepNS = 66000.0
	yardHopNS   = 125.0
	yardElemNS  = 0.86

	// yardShare is the yardstick's nominal time as a share of the time it
	// follows, over its three kinds of work.
	yardShare = 0.18
	// yardMinNS keeps each kind of work long enough, after something
	// short, for its cold start not to weigh.
	yardMinNS = 5e6
)

// mapped returns n zeroed elements outside the Go heap.
func mapped[T any](n int) ([]T, error) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("yardstick: mmap: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), nil
}

func newYardstick(lanes int) (*yardstick, error) {
	y := &yardstick{lanes: make([]yardLane, lanes)}
	for i := range y.lanes {
		l := &y.lanes[i]
		l.grid, l.next = make([]float64, yardGrid*yardGrid), make([]float64, yardGrid*yardGrid)
		for j := range l.grid {
			l.grid[j] = float64(j % 97)
		}
		var err error
		if l.chain, err = mapped[uint32](yardChain); err != nil {
			return nil, err
		}
		if l.stream, err = mapped[float64](yardStream); err != nil {
			return nil, err
		}
		// Sattolo's shuffle: a permutation that is one cycle, so the chase
		// visits the whole buffer and no prefetcher can follow it.
		rng := rand.New(rand.NewSource(int64(i) + 1))
		for j := range l.chain {
			l.chain[j] = uint32(j)
		}
		for j := len(l.chain) - 1; j > 0; j-- {
			k := rng.Intn(j)
			l.chain[j], l.chain[k] = l.chain[k], l.chain[j]
		}
		for j := range l.stream {
			l.stream[j] = float64(j & 7)
		}
	}
	return y, nil
}

func (l *yardLane) sweep(sweeps int) {
	const n = yardGrid
	for s := 0; s < sweeps; s++ {
		for i := 1; i < n-1; i++ {
			row, up, down, out := l.grid[i*n:(i+1)*n], l.grid[(i-1)*n:i*n], l.grid[(i+1)*n:(i+2)*n], l.next[i*n:(i+1)*n]
			for j := 1; j < n-1; j++ {
				out[j] = 0.2 * (row[j] + row[j-1] + row[j+1] + up[j] + down[j])
			}
		}
		l.grid, l.next = l.next, l.grid
	}
	l.sink += l.grid[n+1]
}

func (l *yardLane) chase(hops int) {
	at := l.at
	for s := 0; s < hops; s++ {
		at = l.chain[at]
	}
	l.at = at
}

func (l *yardLane) sum(elems int) {
	var s float64
	for elems > 0 {
		n := min(elems, len(l.stream))
		for _, v := range l.stream[:n] {
			s += v
		}
		elems -= n
	}
	l.sink += s
}

// yardCost is what one reading of the yardstick took, beside what the
// same work takes on the quiet reference host.
type yardCost struct {
	nominal   time.Duration // per lane
	lanes     int
	wall, cpu time.Duration
}

// follow runs the yardstick for nominally yardShare of the time just
// measured, every lane at once, and returns what it took. A nil yardstick
// does nothing.
func (y *yardstick) follow(measured time.Duration) yardCost {
	if y == nil {
		return yardCost{}
	}
	each := max(yardMinNS, yardShare/3*float64(measured.Nanoseconds()))
	sweeps, hops, elems := int(each/yardSweepNS)+1, int(each/yardHopNS), int(each/yardElemNS)
	nominal := float64(sweeps)*yardSweepNS + float64(hops)*yardHopNS + float64(elems)*yardElemNS
	c := yardCost{nominal: time.Duration(nominal), lanes: len(y.lanes)}
	c0, t0 := cpuNow(), time.Now()
	for _, work := range []func(*yardLane){
		func(l *yardLane) { l.sweep(sweeps) },
		func(l *yardLane) { l.chase(hops) },
		func(l *yardLane) { l.sum(elems) },
	} {
		var wg sync.WaitGroup
		for i := range y.lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(&y.lanes[i])
			}()
		}
		wg.Wait()
	}
	c.wall, c.cpu = time.Since(t0), cpuNow()-c0
	return c
}

// slowdown returns how much longer the yardstick took than on the quiet
// reference host, in wall time (the slowest lane of each kind of work)
// and in CPU time (all lanes). Without a reading both are 1.
func (c yardCost) slowdown() (wall, cpu float64) {
	if c.nominal == 0 {
		return 1, 1
	}
	return float64(c.wall) / float64(c.nominal), float64(c.cpu) / float64(c.nominal*time.Duration(c.lanes))
}

// normalised returns each repetition's wall and CPU seconds over the
// host's slowdown around it, and that slowdown in wall time. The slowdown
// around a repetition is the median of what the yardstick saw in it and
// in its two neighbours (the nearest three at either end of the run): one
// reading can catch a burst the repetition did not.
func normalised(reps []repCost) (walls, cpus, slowdowns []float64) {
	slowWall, slowCPU := make([]float64, len(reps)), make([]float64, len(reps))
	for i, r := range reps {
		slowWall[i], slowCPU[i] = r.yard.slowdown()
	}
	for i, r := range reps {
		lo := min(max(0, i-1), max(0, len(reps)-3))
		hi := min(len(reps), lo+3)
		w, c := median(slowWall[lo:hi]), median(slowCPU[lo:hi])
		walls = append(walls, r.wall.Seconds()/w)
		cpus = append(cpus, r.cpu.Seconds()/c)
		slowdowns = append(slowdowns, w)
	}
	return walls, cpus, slowdowns
}
