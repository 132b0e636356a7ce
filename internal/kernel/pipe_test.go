package kernel

import (
	"bytes"
	"testing"

	"compass/internal/frontend"
	"compass/internal/isa"
)

func TestPipeBlockingRoundTrip(t *testing.T) {
	sim, k := newKernel(2, 1<<16)
	p := k.newPipe(128, k.SetupAlloc(128))
	payload := bytes.Repeat([]byte{0xC3}, 1000) // >> capacity
	var got []byte
	sim.Spawn("writer", func(pr *frontend.Proc) {
		if n := p.Write(pr, payload); n != 1000 {
			t.Errorf("wrote %d", n)
		}
		p.CloseWrite(pr)
	})
	sim.Spawn("reader", func(pr *frontend.Proc) {
		pr.Compute(isa.ALU(5000)) // writer fills and blocks first
		for {
			seg := p.Read(pr, 64)
			if seg == nil {
				break
			}
			got = append(got, seg...)
		}
	})
	sim.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("reader got %d bytes, mismatch", len(got))
	}
	if p.BytesMoved != 1000 {
		t.Errorf("BytesMoved = %d", p.BytesMoved)
	}
}

func TestPipeWriterSeesEPIPE(t *testing.T) {
	sim, k := newKernel(2, 1<<16)
	p := k.newPipe(64, k.SetupAlloc(64))
	var wrote int
	sim.Spawn("writer", func(pr *frontend.Proc) {
		pr.Compute(isa.ALU(10_000)) // let the reader close first
		wrote = p.Write(pr, make([]byte, 500))
	})
	sim.Spawn("closer", func(pr *frontend.Proc) {
		p.CloseRead(pr)
	})
	sim.Run()
	if wrote >= 500 {
		t.Errorf("write to closed pipe reported %d", wrote)
	}
}

func TestPipeReaderEOFOnlyAfterDrain(t *testing.T) {
	sim, k := newKernel(1, 1<<16)
	p := k.newPipe(256, k.SetupAlloc(256))
	var got []byte
	sim.Spawn("solo", func(pr *frontend.Proc) {
		p.Write(pr, []byte("leftover"))
		p.CloseWrite(pr)
		for {
			seg := p.Read(pr, 3)
			if seg == nil {
				break
			}
			got = append(got, seg...)
		}
	})
	sim.Run()
	if string(got) != "leftover" {
		t.Errorf("drained %q", got)
	}
}
