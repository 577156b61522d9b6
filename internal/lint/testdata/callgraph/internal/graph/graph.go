// Package graph exercises every call-graph resolution class the lint
// engine distinguishes: static calls, interface dispatch (implements-set
// over-approximation), method values taken without being called, calls
// through function-typed values (unresolvable), direct and mutual
// recursion, and closures attributed to their enclosing declaration.
package graph

// Driver is the dispatch seam: a call through it over-approximates to the
// method on every module type that implements the interface.
type Driver interface {
	Put(k string) error
}

// Mem implements Driver.
type Mem struct{}

func (m *Mem) Put(k string) error { return nil }

// Disk implements Driver.
type Disk struct{}

func (d *Disk) Put(k string) error { return nil }

// step is the static-call target.
func step() {}

// Run makes one static call and one interface-dispatched call.
func Run(d Driver) {
	step()
	d.Put("x")
}

// Hooks carries a callback slot.
type Hooks struct {
	OnJob func()
}

// Watcher hands out a method value without calling it: a may-run edge
// from Handle to observe.
type Watcher struct{ n int }

func (w *Watcher) observe() { w.n++ }

func (w *Watcher) Handle() Hooks {
	return Hooks{OnJob: w.observe}
}

// Apply calls through a function-typed parameter: unresolvable, so it
// has no edge.
func Apply(f func() error) error { return f() }

// Fib is directly recursive.
func Fib(n int) int {
	if n < 2 {
		return n
	}
	return Fib(n-1) + Fib(n-2)
}

// Even and Odd are mutually recursive.
func Even(n int) bool {
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

func Odd(n int) bool {
	if n == 0 {
		return false
	}
	return Even(n - 1)
}

// Spawn calls step from inside a function literal: the edge belongs to
// Spawn, the declaration that encloses the closure.
func Spawn() func() {
	return func() { step() }
}
