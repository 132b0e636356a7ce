package snoop

import (
	"math/rand"
	"testing"

	"compass/internal/event"
	"compass/internal/mem"
)

// BenchmarkAccess is a lone Access on the simple backend over the two streams
// the repo benchmark's snoop drives use: a private 256 KB region per CPU, 70 %
// loads (mostly first-level hits), and one 64 KB region shared by four CPUs,
// 50 % stores (mostly bus transactions).
func BenchmarkAccess(b *testing.B) {
	for _, stream := range []struct {
		name string
		op   func(rng *rand.Rand, cpu int) (mem.PhysAddr, bool)
	}{
		{"private", func(rng *rand.Rand, cpu int) (mem.PhysAddr, bool) {
			return mem.PhysAddr(cpu<<20 + rng.Intn(256<<10)&^3), rng.Intn(10) >= 7
		}},
		{"shared", func(rng *rand.Rand, cpu int) (mem.PhysAddr, bool) {
			return mem.PhysAddr(8<<20 + rng.Intn(64<<10)&^3), rng.Intn(2) == 0
		}},
	} {
		b.Run(stream.name, func(b *testing.B) {
			type op struct {
				pa    mem.PhysAddr
				write bool
			}
			rng := rand.New(rand.NewSource(1))
			ops := make([]op, 1<<16)
			for i := range ops {
				ops[i].pa, ops[i].write = stream.op(rng, i&3)
			}
			s := New(SimpleConfig(4))
			var now event.Cycle
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := &ops[i&(len(ops)-1)]
				now = s.Access(now, i&3, o.pa, o.write)
			}
		})
	}
}

// BenchmarkPageCopy is the reference stream of kreadv and kwritev on the
// simple backend, a line an iteration: a page of a 4 MB region every CPU reads
// is loaded and a page of the CPU's own 256 KB pool stored, 128 lines each,
// as runs or line by line.
func BenchmarkPageCopy(b *testing.B) {
	for _, byRun := range []bool{false, true} {
		name := "by Access"
		if byRun {
			name = "by AccessRun"
		}
		b.Run(name, func(b *testing.B) {
			s := New(SimpleConfig(4))
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
