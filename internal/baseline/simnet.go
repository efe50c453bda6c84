package baseline

import (
	"sync"

	"repro/internal/kernel"
)

// simnet is a miniature discrete-virtual-time network for the
// distributed-memory baselines of Figure 12: endpoints carry virtual
// clocks, computation advances the local clock, and message delivery
// synchronizes the receiver's clock with the sender's plus wire costs.
// It deliberately reuses the kernel's CostModel constants so the
// message-passing world and the migrating-spaces world are charged the
// same prices per byte and per round trip.
type simnet struct {
	cost kernel.CostModel
	mu   sync.Mutex
	clk  []int64 // virtual clock per endpoint
}

func newSimnet(endpoints int, cost kernel.CostModel) *simnet {
	return &simnet{cost: cost, clk: make([]int64, endpoints)}
}

// compute advances an endpoint's clock by ticks of local work.
func (s *simnet) compute(ep int, ticks int64) {
	s.mu.Lock()
	s.clk[ep] += ticks
	s.mu.Unlock()
}

// send models a message of the given payload size from one endpoint to
// another: the sender is busy for the serialization time, and the
// receiver cannot proceed past the delivery time. The base charge is
// one round trip (MigrateMsg) plus per-byte transfer, as before
// batching existed; a payload spanning more than one batch window
// (CostModel.BatchPages pages) additionally pays the kernel protocol's
// per-batch framing for each batch beyond the first, so large transfers
// are charged the same batch overheads in both worlds.
func (s *simnet) send(from, to int, bytes int) {
	c := s.cost
	wire := c.MigrateMsg + int64(bytes)*c.PageTransfer/4096
	if c.BatchPages > 1 {
		pages := (bytes + 4095) / 4096
		if batches := (pages + c.BatchPages - 1) / c.BatchPages; batches > 1 {
			wire += int64(batches-1) * c.BatchMsg
		}
	}
	if c.TCPLike {
		wire += c.TCPExtra
	}
	s.mu.Lock()
	s.clk[from] += wire / 2 // sender-side serialization
	deliver := s.clk[from] + wire/2
	if deliver > s.clk[to] {
		s.clk[to] = deliver
	}
	s.mu.Unlock()
}

// now reads an endpoint's clock.
func (s *simnet) now(ep int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clk[ep]
}
