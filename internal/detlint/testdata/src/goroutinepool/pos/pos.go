// Positive goroutinepool fixtures (loaded under repro/internal/kernel and
// repro/internal/vm): bare go statements outside the one approved site.
package fixture

import "sync"

func fanOut(work []func()) {
	var wg sync.WaitGroup
	for _, w := range work {
		wg.Add(1)
		go func() { // want "bare go statement in deterministic package"
			defer wg.Done()
			w()
		}()
	}
	wg.Wait()
}

func fireAndForget(ch chan<- int) {
	go send(ch) // want "bare go statement in deterministic package"
}

func send(ch chan<- int) { ch <- 1 }

type runner struct{ done chan struct{} }

func (r *runner) spawnInMethod() {
	go close(r.done) // want "bare go statement in deterministic package"
}

// ParallelFor was an approved site under repro/internal/vm until the host
// worker pools were deleted; the name buys nothing now.
func ParallelFor(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		go fn(i) // want "bare go statement in deterministic package"
	}
}
