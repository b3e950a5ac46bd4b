package simpool

import "time"

// PinHedgeAfter fixes p's hedge delay at d instead of deriving it from
// the recorded round-trips; a negative d switches hedging off. Tests
// that count simulator calls switch it off, and tests that want hedged
// duplicates pin it short.
func (p *Pool) PinHedgeAfter(d time.Duration) {
	p.mu.Lock()
	p.hedgeAfter, p.hedgePinned = d, true
	p.mu.Unlock()
	p.wake()
}
