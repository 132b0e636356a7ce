// Package splash provides a small scientific shared-memory kernel in the
// style of the SPLASH-2 suite the paper contrasts against (§1): a
// red-black SOR grid solver. It spends essentially no time in the OS —
// the control group for the Table-1 profiles — and it is the traffic
// generator for the NUMA page placement and target-architecture
// ablations.
package splash

import (
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
	"compass/internal/osserver"
	"compass/internal/simsync"
)

// SORConfig shapes the grid solver.
type SORConfig struct {
	N     int // grid is N×N float64
	Iters int
	Procs int
}

// SOR is a red-black successive-over-relaxation solver over a grid in a
// shared-memory segment. Grid values are host floats; every access charges
// simulated traffic at the cell's segment address, so sharing patterns hit
// the coherence protocol exactly like the real kernel.
type SOR struct {
	Cfg    SORConfig
	ShmKey int
	grid   []float64
	next   []float64
}

// NewSOR builds the solver state (pre-Run).
func NewSOR(cfg SORConfig) *SOR {
	s := &SOR{Cfg: cfg, ShmKey: 0x50A0, grid: make([]float64, cfg.N*cfg.N), next: make([]float64, cfg.N*cfg.N)}
	for i := range s.grid {
		s.grid[i] = float64(i%17) * 0.25
	}
	return s
}

// SegmentBytes returns the shared segment size: the grid plus a barrier.
func (s *SOR) SegmentBytes() uint32 {
	return uint32(s.Cfg.N*s.Cfg.N*8 + 64)
}

func (s *SOR) cellVA(base mem.VirtAddr, r, c int) mem.VirtAddr {
	return base + 64 + mem.VirtAddr((r*s.Cfg.N+c)*8)
}

// Worker is the body of participant idx (rows are block-partitioned).
func (s *SOR) Worker(p *frontend.Proc, idx int) {
	os := osserver.For(p)
	id, err := os.ShmGet(s.ShmKey, s.SegmentBytes())
	if err != nil {
		panic(err)
	}
	base, err := os.ShmAt(id)
	if err != nil {
		panic(err)
	}
	bar := &simsync.Barrier{Addr: base, N: uint64(s.Cfg.Procs)}
	n := s.Cfg.N
	lo := 1 + (n-2)*idx/s.Cfg.Procs
	hi := 1 + (n-2)*(idx+1)/s.Cfg.Procs

	for it := 0; it < s.Cfg.Iters; it++ {
		for r := lo; r < hi; r++ {
			for c := 1; c < n-1; c++ {
				// Neighbor loads + centre store: 5 touches, FP work.
				p.Load(s.cellVA(base, r-1, c), 8)
				p.Load(s.cellVA(base, r+1, c), 8)
				p.Load(s.cellVA(base, r, c-1), 8)
				p.Load(s.cellVA(base, r, c+1), 8)
				v := 0.25 * (s.grid[(r-1)*n+c] + s.grid[(r+1)*n+c] + s.grid[r*n+c-1] + s.grid[r*n+c+1])
				p.Compute(isa.InstrMix{FPAdd: 3, FPMul: 1, Int: 6, Branch: 1})
				s.next[r*n+c] = v
				p.Store(s.cellVA(base, r, c), 8)
			}
		}
		bar.Wait(p)
		// Copy phase: adopt the new values for owned rows.
		for r := lo; r < hi; r++ {
			copy(s.grid[r*n+1:r*n+n-1], s.next[r*n+1:r*n+n-1])
		}
		bar.Wait(p)
	}
	if err := os.ShmDt(base); err != nil {
		panic(err)
	}
}

// HostSOR computes the same iteration sequentially (test oracle).
func HostSOR(cfg SORConfig) []float64 {
	n := cfg.N
	grid := make([]float64, n*n)
	next := make([]float64, n*n)
	for i := range grid {
		grid[i] = float64(i%17) * 0.25
	}
	for it := 0; it < cfg.Iters; it++ {
		for r := 1; r < n-1; r++ {
			for c := 1; c < n-1; c++ {
				next[r*n+c] = 0.25 * (grid[(r-1)*n+c] + grid[(r+1)*n+c] + grid[r*n+c-1] + grid[r*n+c+1])
			}
		}
		for r := 1; r < n-1; r++ {
			copy(grid[r*n+1:r*n+n-1], next[r*n+1:r*n+n-1])
		}
	}
	return grid
}

// Grid exposes the solved grid (after Run).
func (s *SOR) Grid() []float64 { return s.grid }
