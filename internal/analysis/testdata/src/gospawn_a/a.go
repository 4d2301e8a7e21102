// Package gospawn_a exercises the gospawn analyzer: every goroutine
// spawned outside tests must be tied to a lifecycle that provably ends
// it.
package gospawn_a

import (
	"context"
	"net"
	"sync"
	"time"
)

// untied is the canonical leak: nothing ends this loop.
func untied() {
	go func() { // want `goroutine has no lifecycle`
		for i := 0; ; i++ {
			_ = i
		}
	}()
}

// ctxTied: the body observes a context.
func ctxTied(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// wgTied: a drain barrier observes the exit.
func wgTied(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
}

// chanTied: completion signalling over a channel.
func chanTied(done chan struct{}) {
	go func() {
		done <- struct{}{}
	}()
}

// selectTied: a select is always channel-driven.
func selectTied(a, b chan int) {
	go func() {
		select {
		case <-a:
		case <-b:
		}
	}()
}

// rangeTied: ranging a channel ends when the producer closes it.
func rangeTied(in chan int) {
	go func() {
		for v := range in {
			_ = v
		}
	}()
}

// closeTied: the spawn owns the close side of the handshake.
func closeTied(done chan struct{}) {
	go func() {
		time.Sleep(time.Millisecond)
		close(done)
	}()
}

// deadlineTied: blocking I/O under a deadline regime cannot outlive it.
func deadlineTied(conn net.Conn) {
	go func() {
		buf := [64]byte{}
		conn.SetReadDeadline(time.Now().Add(time.Second))
		conn.Read(buf[:])
	}()
}

// acceptTied: closing the listener is the accept-loop's teardown.
func acceptTied(l net.Listener) {
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
}

// loop ranges its input channel: a named same-package spawn target with
// a lifecycle of its own.
func loop(in chan int) {
	for v := range in {
		_ = v
	}
}

// namedTied resolves the callee body in-package.
func namedTied(in chan int) {
	go loop(in)
}

// spin has no lifecycle marker at all.
func spin() {
	for {
	}
}

// namedUntied: the resolved body proves the leak.
func namedUntied() {
	go spin() // want `goroutine has no lifecycle`
}

// varTied: an opaque func value spawned with a context argument — the
// lifecycle travels in the arguments.
func varTied(fn func(context.Context), ctx context.Context) {
	go fn(ctx)
}

// varUntied: an opaque func value with nothing to end it.
func varUntied(fn func()) {
	go fn() // want `goroutine has no lifecycle`
}

// litVarTied: a local variable bound to exactly one function literal
// resolves to that literal's body.
func litVarTied(conns chan net.Conn) {
	handshake := func(c net.Conn) {
		c.SetDeadline(time.Now().Add(time.Second))
	}
	for c := range conns {
		go handshake(c)
	}
}

// litVarUntied: the single bound literal proves the leak.
func litVarUntied() {
	spinner := func() {
		for {
		}
	}
	go spinner() // want `goroutine has no lifecycle`
}

// litVarAmbiguous: two literals bound to one variable stay unresolved,
// so the bare-args rule applies.
func litVarAmbiguous(flip bool) {
	fn := func() {}
	if flip {
		fn = func() {
			for {
			}
		}
	}
	go fn() // want `goroutine has no lifecycle`
}

// litVarIndirect: the lifecycle lives one call level down, in the post
// closure the spawned loop reports through.
func litVarIndirect(events chan int) {
	post := func(v int) {
		events <- v
	}
	tail := func() {
		for i := 0; i < 10; i++ {
			post(i)
		}
	}
	go tail()
}

// siblingHelpers: the loop calls two same-package helpers before the
// post that ties it. The depth bound counts call levels, not bodies
// visited, so the helpers do not use up the post's level.
func siblingHelpers(events chan int) {
	post := func(v int) {
		events <- v
	}
	tail := func() {
		for i := 0; i < 10; i++ {
			stepOne(i)
			stepTwo(i)
			post(i)
		}
	}
	go tail()
}

func stepOne(i int) { _ = i }

func stepTwo(i int) { _ = i + 1 }

// tooDeep: the only lifecycle sits four call levels down, past
// lifecycleDepth, so the spawn is still reported.
func tooDeep(events chan int) {
	go levelOne(events) // want `goroutine has no lifecycle`
}

func levelOne(events chan int) { levelTwo(events) }

func levelTwo(events chan int) { levelThree(events) }

func levelThree(events chan int) { levelFour(events) }

func levelFour(events chan int) { events <- 1 }

// cancelSpawn: spawning a context.CancelFunc is itself a lifecycle
// action — the call tears a context down and returns.
func cancelSpawn(ctx context.Context) {
	_, cancel := context.WithCancel(ctx)
	go cancel()
}

// genericWorker exercises the generic-method resolution: the call site
// binds the instantiated method object, the declaration index holds the
// generic one, and Origin joins them.
type genericWorker[E any] struct {
	out chan E
}

func (w *genericWorker[E]) drain() {
	for v := range w.out {
		_ = v
	}
}

func (w *genericWorker[E]) spinForever() {
	for {
	}
}

func spawnGeneric(w *genericWorker[int]) {
	go w.drain()
	go w.spinForever() // want `goroutine has no lifecycle`
}

// suppressed: the justified escape hatch for genuinely bounded
// fire-and-forget work.
func suppressed() {
	go spin() //nolint:npdplint(gospawn) bounded chaos helper, reaped at process exit
}
