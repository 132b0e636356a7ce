package kernel

import (
	"fmt"
	"testing"

	"compass/internal/core"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/stats"
)

func newKernel(cpus int, arena uint32) (*core.Sim, *Kernel) {
	cfg := core.DefaultConfig()
	cfg.CPUs = cpus
	cfg.MemFrames = 4096
	sim := core.New(cfg)
	return sim, New(sim, arena)
}

func TestEnterExitAccounting(t *testing.T) {
	sim, k := newKernel(1, 1<<16)
	sim.Spawn("p", func(p *frontend.Proc) {
		k.Enter(p)
		if p.Mode() != stats.ModeKernel {
			t.Error("not in kernel mode after Enter")
		}
		p.ComputeCycles(100)
		k.Exit(p)
		if p.Mode() != stats.ModeUser {
			t.Error("not back in user mode after Exit")
		}
	})
	sim.Run()
	if k.Syscalls.Load() != 1 {
		t.Errorf("syscalls = %d", k.Syscalls.Load())
	}
}

func TestKmemAlignmentAndExhaustion(t *testing.T) {
	sim, k := newKernel(1, 256)
	sim.Spawn("p", func(p *frontend.Proc) {
		a := k.KmemAlloc(p, 1)
		b := k.KmemAlloc(p, 1)
		if b-a != 64 {
			t.Errorf("allocations not line-aligned: %d apart", b-a)
		}
		defer func() {
			if recover() == nil {
				t.Error("arena exhaustion did not panic")
			}
		}()
		k.KmemAlloc(p, 512)
	})
	sim.Run()
}

func TestSetupAllocAndLock(t *testing.T) {
	_, k := newKernel(1, 1<<12)
	a := k.SetupAlloc(10)
	b := k.SetupAlloc(10)
	if b-a != 64 {
		t.Errorf("setup allocs %d apart", b-a)
	}
	l := k.SetupLock()
	if l.Addr == 0 || !l.Kernel {
		t.Error("SetupLock malformed")
	}
}

func TestSemaphoreInitialCount(t *testing.T) {
	sim, k := newKernel(2, 1<<12)
	sem := k.NewSemaphore(2)
	var passed [3]bool
	for i := 0; i < 3; i++ {
		i := i
		sim.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
			sem.P(p)
			passed[i] = true
			p.Compute(isa.ALU(1000))
			sem.V(p)
		})
	}
	sim.Run()
	for i, ok := range passed {
		if !ok {
			t.Fatalf("proc %d never passed", i)
		}
	}
	if sem.Count() != 2 {
		t.Errorf("final count = %d, want 2", sem.Count())
	}
}

func TestSemaphoreBlocksAtZero(t *testing.T) {
	sim, k := newKernel(2, 1<<12)
	sem := k.NewSemaphore(0)
	var consumerAt, producerAt uint64
	sim.Spawn("consumer", func(p *frontend.Proc) {
		sem.P(p) // blocks until the producer Vs
		consumerAt = uint64(p.Now())
	})
	sim.Spawn("producer", func(p *frontend.Proc) {
		p.Compute(isa.ALU(50_000))
		producerAt = uint64(p.Now())
		sem.V(p)
	})
	sim.Run()
	if consumerAt < producerAt {
		t.Errorf("consumer passed P at %d before producer's V at %d", consumerAt, producerAt)
	}
}

// TestWaitQueueWakeOne wakes the longest sleeper first: s0 registers
// before s1 (same time, lower id), so the first wake frees s0 alone and
// the second frees s1. The semaphore's FIFO V rests on this order.
func TestWaitQueueWakeOne(t *testing.T) {
	sim, k := newKernel(2, 1<<12)
	q := k.NewWaitQueue()
	var wokenAt [2]uint64
	for i := 0; i < 2; i++ {
		i := i
		sim.Spawn(fmt.Sprintf("s%d", i), func(p *frontend.Proc) {
			p.Call(60, func() any { q.Sleep(); return nil })
			wokenAt[i] = uint64(p.Now())
		})
	}
	var secondWake uint64
	sim.Spawn("waker", func(p *frontend.Proc) {
		p.Compute(isa.ALU(10_000))
		p.Call(60, func() any { q.WakeOneBackend(); return nil })
		p.Compute(isa.ALU(10_000))
		secondWake = uint64(p.Now())
		p.Call(60, func() any { q.WakeAllBackend(); return nil })
	})
	sim.Run()
	if wokenAt[0] == 0 || wokenAt[1] == 0 {
		t.Fatalf("woken at %v", wokenAt)
	}
	if wokenAt[0] >= secondWake || wokenAt[1] < secondWake {
		t.Errorf("s0 woke at %d, s1 at %d, second wake at %d: the first wake must free s0 alone", wokenAt[0], wokenAt[1], secondWake)
	}
}

func TestWaitQueueWakeAllFromBackendTask(t *testing.T) {
	sim, k := newKernel(2, 1<<12)
	q := k.NewWaitQueue()
	var done [3]bool
	for i := 0; i < 3; i++ {
		i := i
		sim.Spawn(fmt.Sprintf("s%d", i), func(p *frontend.Proc) {
			p.Call(60, func() any { q.Sleep(); return nil })
			done[i] = true
		})
	}
	sim.Spawn("armer", func(p *frontend.Proc) {
		p.Call(0, func() any {
			sim.ScheduleTask(20_000, "dev-complete", false, func() {
				q.WakeAllBackend()
			})
			return nil
		})
	})
	sim.Run()
	if !done[0] || !done[1] || !done[2] {
		t.Errorf("done = %v", done)
	}
}
