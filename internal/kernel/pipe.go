package kernel

import (
	"compass/internal/frontend"
	"compass/internal/mem"
)

// Pipe is a bounded in-kernel byte channel with blocking reads and writes
// — the classic UNIX IPC the paper's commercial applications lean on (§1).
// Buffer state is backend-owned; data bytes are functional; the kernel
// copies are charged against a kernel-space staging area so pipe traffic
// pollutes caches like a real kernel buffer.
type Pipe struct {
	cap int
	kva mem.VirtAddr

	// Backend-owned.
	buf         []byte
	readClosed  bool
	writeClosed bool
	readers     *WaitQueue
	writers     *WaitQueue

	BytesMoved uint64
}

// NewPipeRuntime creates a pipe from kernel context on process p (the
// pipe(2) syscall path; kmem allocation under the kmem lock).
func (k *Kernel) NewPipeRuntime(p *frontend.Proc, capacity int) *Pipe {
	if capacity <= 0 {
		capacity = 4096
	}
	return k.newPipe(capacity, k.KmemAlloc(p, uint32(min(capacity, mem.PageSize))))
}

func (k *Kernel) newPipe(capacity int, kva mem.VirtAddr) *Pipe {
	return &Pipe{
		cap:     capacity,
		kva:     kva,
		readers: k.NewWaitQueue(),
		writers: k.NewWaitQueue(),
	}
}

// Write appends data, blocking while the pipe is full. It returns the
// bytes written (short only when the read end closes mid-write).
func (p *Pipe) Write(pr *frontend.Proc, data []byte) int {
	written := 0
	for written < len(data) {
		res := pr.Call(60, func() any {
			if p.readClosed {
				return -1
			}
			space := p.cap - len(p.buf)
			if space == 0 {
				p.writers.Sleep()
				return 0
			}
			chunk := len(data) - written
			if chunk > space {
				chunk = space
			}
			p.buf = append(p.buf, data[written:written+chunk]...)
			p.BytesMoved += uint64(chunk)
			p.readers.WakeAllBackend()
			return chunk
		})
		n := res.(int)
		if n < 0 {
			return written // EPIPE
		}
		if n > 0 {
			// Charge the copy into the kernel buffer.
			pr.KTouchRange(p.kva+mem.VirtAddr(written%mem.PageSize), min(n, mem.PageSize), true)
			pr.ComputeCycles(uint64(n) / 4)
			written += n
		}
	}
	return written
}

// Read takes up to max bytes, blocking while the pipe is empty. A nil
// result means the write end closed and the pipe drained (EOF).
func (p *Pipe) Read(pr *frontend.Proc, max int) []byte {
	for {
		res := pr.Call(60, func() any {
			if len(p.buf) > 0 {
				chunk := min(max, len(p.buf))
				out := make([]byte, chunk)
				copy(out, p.buf[:chunk])
				p.buf = p.buf[chunk:]
				p.writers.WakeAllBackend()
				return out
			}
			if p.writeClosed {
				return []byte(nil)
			}
			p.readers.Sleep()
			return nil
		})
		if res == nil {
			continue // woken; recheck
		}
		out := res.([]byte)
		if out == nil {
			return nil // EOF
		}
		pr.KTouchRange(p.kva, min(len(out), mem.PageSize), false)
		pr.ComputeCycles(uint64(len(out)) / 4)
		return out
	}
}

// CloseWrite closes the write end; readers drain and then see EOF.
func (p *Pipe) CloseWrite(pr *frontend.Proc) {
	pr.Call(40, func() any {
		p.writeClosed = true
		p.readers.WakeAllBackend()
		return nil
	})
}

// CloseRead closes the read end; writers see EPIPE.
func (p *Pipe) CloseRead(pr *frontend.Proc) {
	pr.Call(40, func() any {
		p.readClosed = true
		p.writers.WakeAllBackend()
		return nil
	})
}
