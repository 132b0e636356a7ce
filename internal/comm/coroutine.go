//go:build go1.23

package comm

import "iter"

// newCoroutine is iter.Pull: next switches to seq's goroutine directly
// (the runtime's coroswitch — no run queue, no futex) and yield switches
// back. It sits in a file of its own because go.mod says go 1.22, which
// bench/go.mod pins, and the build constraint is what lets this file use
// a 1.23 package; the module needs a 1.23 toolchain to build.
func newCoroutine(seq func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(seq)
}
