package snoop

import (
	"math/rand"
	"testing"

	"compass/internal/event"
	"compass/internal/mem"
)

// configs are the two machines the benchmarks run on: the simple backend
// (one level, ideal bus) and the SMP (two levels, contended bus).
var configs = []func(int) Config{SimpleConfig, SMPConfig}

// BenchmarkAccess is a lone Access over three streams, on the simple backend
// and on the SMP: a private 256 KB region per CPU, 70 % loads, which the
// 32 KB first level serves one time in eight (12.4 % on the simple backend)
// and the SMP's second level holds; a private 16 KB region per CPU, which the
// first level holds whole, so that past the first touch of each line every
// reference is a first-level hit; and one 64 KB region shared by four CPUs,
// 50 % stores (mostly bus transactions). It reports the first-level hits per
// reference as l1-hits/op.
func BenchmarkAccess(b *testing.B) {
	for _, mk := range configs {
		for _, stream := range []struct {
			name string
			op   func(rng *rand.Rand, cpu int) (mem.PhysAddr, bool)
		}{
			{"private", func(rng *rand.Rand, cpu int) (mem.PhysAddr, bool) {
				return mem.PhysAddr(cpu<<20 + rng.Intn(256<<10)&^3), rng.Intn(10) >= 7
			}},
			{"l1", func(rng *rand.Rand, cpu int) (mem.PhysAddr, bool) {
				return mem.PhysAddr(cpu<<20 + rng.Intn(16<<10)&^3), rng.Intn(10) >= 7
			}},
			{"shared", func(rng *rand.Rand, cpu int) (mem.PhysAddr, bool) {
				return mem.PhysAddr(8<<20 + rng.Intn(64<<10)&^3), rng.Intn(2) == 0
			}},
		} {
			cfg := mk(4)
			b.Run(New(cfg).Name()+"/"+stream.name, func(b *testing.B) {
				type op struct {
					pa    mem.PhysAddr
					write bool
				}
				rng := rand.New(rand.NewSource(1))
				ops := make([]op, 1<<16)
				for i := range ops {
					ops[i].pa, ops[i].write = stream.op(rng, i&3)
				}
				s := New(cfg)
				var now event.Cycle
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := &ops[i&(len(ops)-1)]
					now = s.Access(now, i&3, o.pa, o.write)
				}
				b.ReportMetric(float64(s.l1Hits)/float64(b.N), "l1-hits/op")
			})
		}
	}
}

// BenchmarkPageCopy is the reference stream of kreadv and kwritev, on the
// simple backend and on the SMP, a line an iteration: a page of a 4 MB region
// every CPU reads is loaded and a page of the CPU's own 256 KB pool stored,
// 128 lines each, as runs or line by line.
func BenchmarkPageCopy(b *testing.B) {
	for _, mk := range configs {
		for _, byRun := range []bool{false, true} {
			cfg := mk(4)
			name := New(cfg).Name() + "/by Access"
			if byRun {
				name = New(cfg).Name() + "/by AccessRun"
			}
			b.Run(name, func(b *testing.B) {
				s := New(cfg)
				rng := rand.New(rand.NewSource(1))
				var now event.Cycle
				const lines = mem.PageSize / 32
				for i := 0; i < b.N; i += 2 * lines {
					cpu := rng.Intn(4)
					src := mem.PhysAddr(rng.Intn(1024)) << mem.PageShift
					dst := mem.PhysAddr(16<<20+cpu<<18) + mem.PhysAddr(rng.Intn(64))<<mem.PageShift
					for _, half := range []struct {
						pa    mem.PhysAddr
						write bool
					}{{src, false}, {dst, true}} {
						if byRun {
							_, _, now = s.AccessRun(now, cpu, half.pa, 32, lines, 1, ^event.Cycle(0), half.write)
							continue
						}
						for k := mem.PhysAddr(0); k < lines; k++ {
							now = s.Access(now+1, cpu, half.pa+32*k, half.write)
						}
					}
				}
			})
		}
	}
}
