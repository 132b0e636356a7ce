package simsync

import (
	"fmt"
	"reflect"
	"testing"

	"compass/internal/comm"
	"compass/internal/core"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/mem"
)

// sim builds a bare simulator with a kernel page for lock words.
func sim(cpus int) (*core.Sim, mem.VirtAddr) {
	cfg := core.DefaultConfig()
	cfg.CPUs = cpus
	cfg.MemFrames = 256
	s := core.New(cfg)
	kbase, err := s.KernelSbrk(mem.PageSize)
	if err != nil {
		panic(err)
	}
	return s, kbase
}

func TestTryLock(t *testing.T) {
	s, kbase := sim(1)
	s.Spawn("p", func(p *frontend.Proc) {
		l := &SpinLock{Addr: kbase, Kernel: true}
		if !l.TryLock(p) {
			t.Error("TryLock on free lock failed")
		}
		if l.TryLock(p) {
			t.Error("TryLock on held lock succeeded")
		}
		l.Unlock(p)
		if !l.TryLock(p) {
			t.Error("TryLock after unlock failed")
		}
	})
	s.Run()
}

func TestLockFairnessUnderContention(t *testing.T) {
	s, kbase := sim(4)
	acquisitions := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
			l := &SpinLock{Addr: kbase, Kernel: true}
			for j := 0; j < 20; j++ {
				l.Lock(p)
				acquisitions[i]++
				p.Compute(isa.ALU(30))
				l.Unlock(p)
				p.Compute(isa.ALU(10))
			}
		})
	}
	s.Run()
	for i, a := range acquisitions {
		if a != 20 {
			t.Errorf("proc %d acquired %d times, want 20 (starvation?)", i, a)
		}
	}
}

func TestCounterOps(t *testing.T) {
	s, kbase := sim(1)
	s.Spawn("c", func(p *frontend.Proc) {
		c := &Counter{Addr: kbase + 64, Kernel: true}
		if c.Load(p) != 0 {
			t.Error("fresh counter nonzero")
		}
		if prev := c.Add(p, 5); prev != 0 {
			t.Errorf("Add returned %d, want previous value 0", prev)
		}
		if c.Load(p) != 5 {
			t.Errorf("counter = %d", c.Load(p))
		}
	})
	s.Run()
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	s, kbase := sim(2)
	const rounds = 5
	seen := [2][rounds]int{}
	counter := 0
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn(fmt.Sprintf("b%d", i), func(p *frontend.Proc) {
			bar := &Barrier{Addr: kbase + 128, Kernel: true, N: 2}
			l := &SpinLock{Addr: kbase + 192, Kernel: true}
			for r := 0; r < rounds; r++ {
				l.Lock(p)
				counter++
				seen[i][r] = counter
				l.Unlock(p)
				bar.Wait(p)
				// After the barrier both increments of round r happened.
				l.Lock(p)
				if counter < 2*(r+1) {
					t.Errorf("round %d: counter %d < %d after barrier", r, counter, 2*(r+1))
				}
				l.Unlock(p)
				bar.Wait(p)
			}
		})
	}
	s.Run()
}

func TestBarrierMoreProcsThanCPUs(t *testing.T) {
	// Spinning barrier participants must yield so the last arrivals get a
	// CPU (the spin-then-yield path).
	s, kbase := sim(2)
	const procs = 5
	for i := 0; i < procs; i++ {
		i := i
		s.Spawn(fmt.Sprintf("b%d", i), func(p *frontend.Proc) {
			bar := &Barrier{Addr: kbase + 256, Kernel: true, N: procs}
			arrived := &Counter{Addr: kbase + 320, Kernel: true}
			p.Compute(isa.ALU(uint64(100 * (i + 1))))
			arrived.Add(p, 1)
			bar.Wait(p)
			if got := arrived.Load(p); got != procs {
				t.Errorf("proc %d passed barrier with %d arrivals", i, got)
			}
		})
	}
	s.Run()
}

// scripted runs body as a process against a backend that answers every
// event two cycles on and lets the first held CAS attempts find the lock
// word set, and returns what the process posted: kind, operation and cycle.
// Of a spin event it serves the CAS and no more, and lists it as that RMW;
// spins counts them.
func scripted(held int, body func(p *frontend.Proc)) (posted []string, spins int) {
	hub := comm.NewHub(1)
	port := hub.NewPort(comm.StateRunning)
	p := frontend.New(port.ID(), "scripted", port, isa.DefaultTiming())
	hub.Lock()
	defer hub.Unlock()
	port.Start(func() {
		body(p)
		p.Exit()
	})
	for {
		hub.ResumeFrontends()
		pick, _, _, _ := hub.Scan()
		if pick == nil {
			return posted, spins
		}
		ev := pick.Pending()
		kind := ev.Kind
		if kind == comm.KSpin {
			kind = comm.KRMW
			spins++
		}
		posted = append(posted, fmt.Sprintf("kind%d/op%d@%d", kind, ev.Op, ev.Time))
		r := pick.Answer()
		r.Done = ev.Time + 2
		if ev.Kind == comm.KExit {
			pick.DeliverExit()
			continue
		}
		if kind == comm.KRMW && ev.Op == comm.RMWCAS {
			r.Stop = comm.SpinAcquired
			if held > 0 {
				held--
				r.Value, r.Stop = 1, comm.SpinHeld
			}
		}
		pick.Deliver()
	}
}

// Lock is a first attempt and, when that finds the lock held, contended:
// together they post what the one loop they were cut from posted — CAS,
// backoff doubling from 8 cycles up to 4096, a yield after every eighth
// failure — however long the lock stays held.
func TestLockIsFirstAttemptThenContended(t *testing.T) {
	l := &SpinLock{Addr: 0x4000}
	// The loop as it stood before LockWhen needed its first attempt apart.
	lockLoop := func(p *frontend.Proc) {
		backoff := uint64(8)
		attempts := 0
		for {
			if p.RMW(l.Addr, 4, comm.RMWCAS, 1, 0, l.Kernel) == 0 {
				return
			}
			p.ComputeCycles(backoff)
			if backoff < 4096 {
				backoff *= 2
			}
			attempts++
			if attempts%8 == 0 {
				p.Yield()
			}
		}
	}
	for _, held := range []int{0, 1, 2, 7, 8, 9, 16, 30} {
		want, _ := scripted(held, lockLoop)
		if got, _ := scripted(held, l.Lock); !reflect.DeepEqual(got, want) {
			t.Errorf("lock held for %d attempts:\nLock posted %v\nthe loop   %v", held, got, want)
		}
		if yields := held / 8; len(want) != held+1+yields+1 {
			t.Errorf("lock held for %d attempts: the loop posted %d events, want %d attempts, %d yields and the exit", held, len(want), held+1, yields)
		}
	}
}

// LockWhen against a backend that serves a spin event's CAS and leaves the
// rest is the loop it stands for, post by post: whatever step the backend
// stops at, the frontend goes on from there by the ordinary posts. Under
// SetBatch it posts no spin event to begin with.
func TestLockWhenFinishesWhatTheBackendLeaves(t *testing.T) {
	l := &SpinLock{Addr: 0x4000}
	polls := func(n int) func() bool {
		return func() bool { n--; return n < 0 }
	}
	for _, misses := range []int{0, 1, 3} {
		for _, held := range []int{0, 2, 9} {
			ready := polls(misses)
			want, _ := scripted(held, func(p *frontend.Proc) {
				for {
					l.Lock(p)
					if ready() {
						return
					}
					l.Unlock(p)
					p.ComputeCycles(400)
					p.Yield()
				}
			})
			for _, batch := range []int{1, 2} {
				ready = polls(misses)
				got, spins := scripted(held, func(p *frontend.Proc) {
					p.SetBatch(batch)
					l.LockWhen(p, 400, ready)
				})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("batch %d, %d polls missed, lock held for %d attempts:\nLockWhen posted %v\nthe loop       %v", batch, misses, held, got, want)
				}
				if wantSpins := (misses + 1) * (2 - batch); spins != wantSpins {
					t.Errorf("batch %d, %d polls missed: %d spin events posted, want %d", batch, misses, spins, wantSpins)
				}
			}
		}
	}
}
