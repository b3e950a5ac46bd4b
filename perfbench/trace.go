package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/space"
	"repro/internal/store"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent is the index of the enclosing span or
// -1 for a root; req ties the spans of one request (campaign or HTTP
// request) together.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// tracer records spans in memory; write dumps them once the run ends. A
// nil *tracer is a valid no-op tracer, so the decorators cost one nil
// check when tracing is off.
//
// Parents are found two ways. The driver goroutine pushes scope spans
// (a campaign, an oracle call) that everything started beneath them
// belongs to. Calls that can run concurrently for different requests
// (HTTP round trips, remote-pool calls) register under their
// configuration's hash, and a callee handling that configuration adopts
// the keyed span as its parent.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	scope []int32
	keyed map[uint64]int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), keyed: make(map[uint64]int32)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: start, end: -1, parent: parent, req: req})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// push opens a scope span under the current scope; req 0 inherits the
// scope's request id.
func (t *tracer) push(name string, req int64) int32 {
	if t == nil {
		return -1
	}
	id := t.begin(name, t.parentFor(0), req)
	if req == 0 {
		t.inherit(id)
	}
	t.mu.Lock()
	t.scope = append(t.scope, id)
	t.mu.Unlock()
	return id
}

// pop closes the innermost scope span.
func (t *tracer) pop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := t.scope[len(t.scope)-1]
	t.scope = t.scope[:len(t.scope)-1]
	t.mu.Unlock()
	t.end(id)
}

// beginKeyed opens a span under the current scope, in its request, and
// registers it as the parent of callees that handle the configuration
// hashed to key.
func (t *tracer) beginKeyed(name string, key uint64) int32 {
	if t == nil {
		return -1
	}
	id := t.begin(name, t.parentFor(0), 0)
	t.inherit(id)
	t.key(id, key)
	return id
}

// inherit gives span id its parent's request id.
func (t *tracer) inherit(id int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.spans[id].parent; p >= 0 {
		t.spans[id].req = t.spans[p].req
	}
}

// key registers span id as the parent of callees that handle the
// configuration hashed to key.
func (t *tracer) key(id int32, key uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.keyed[key] = id
	t.mu.Unlock()
}

// backdate moves span id's start d earlier.
func (t *tracer) backdate(id int32, d time.Duration) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].start -= int64(d)
	t.mu.Unlock()
}

// endKeyed closes a keyed span and drops its registration.
func (t *tracer) endKeyed(id int32, key uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.keyed[key] == id {
		delete(t.keyed, key)
	}
	t.mu.Unlock()
	t.end(id)
}

// parentFor returns the keyed span registered for key (0 = none), else
// the innermost scope, else -1.
func (t *tracer) parentFor(key uint64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if key != 0 {
		if id, ok := t.keyed[key]; ok {
			return id
		}
	}
	if n := len(t.scope); n > 0 {
		return t.scope[n-1]
	}
	return -1
}

// reqOf returns the request id of span id (0 for none).
func (t *tracer) reqOf(id int32) int64 {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].req
}

// child opens a span for a callee handling cfg (nil: no key).
func (t *tracer) child(name string, cfg space.Config) int32 {
	if t == nil {
		return -1
	}
	var key uint64
	if cfg != nil {
		key = store.HashConfig(cfg)
	}
	p := t.parentFor(key)
	return t.begin(name, p, t.reqOf(p))
}

// snapshot returns a copy of the recorded spans; spans still open are
// closed at the snapshot time.
func (t *tracer) snapshot() []span {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].end < 0 {
			out[i].end = now
		}
	}
	return out
}

// write dumps spans as CSV (name,start_ns,end_ns,parent,req).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: the part of its
// interval during which it is running and none of its children is. Every
// span is first clipped to its parent's (clipped) interval. Where
// several spans of one tree are self-running at once — parallel workers
// under one batch call — the instant is split equally between them, so
// the self times of a tree sum exactly to its root's duration and
// per-layer self times add up to wall time even under concurrency.
func selfTimes(spans []span) []float64 {
	n := len(spans)
	lo := make([]int64, n)
	hi := make([]int64, n)
	root := make([]int32, n)
	for i, s := range spans {
		lo[i], hi[i], root[i] = s.start, s.end, int32(i)
		if p := s.parent; p >= 0 && int(p) < i {
			lo[i] = max(lo[i], lo[p])
			hi[i] = min(hi[i], hi[p])
			root[i] = root[p]
		}
		if hi[i] < lo[i] {
			hi[i] = lo[i]
		}
	}
	type event struct {
		t    int64
		id   int32
		open bool
	}
	trees := make(map[int32][]event)
	for i := range spans {
		if hi[i] == lo[i] {
			continue
		}
		r := root[i]
		trees[r] = append(trees[r], event{lo[i], int32(i), true}, event{hi[i], int32(i), false})
	}
	self := make([]float64, n)
	kids := make([]int, n) // running children per span
	for _, evs := range trees {
		// At equal times: closes before opens, children close before
		// and open after their parents (ids grow from parent to child).
		sort.Slice(evs, func(a, b int) bool {
			ea, eb := evs[a], evs[b]
			if ea.t != eb.t {
				return ea.t < eb.t
			}
			if ea.open != eb.open {
				return !ea.open
			}
			if ea.open {
				return ea.id < eb.id
			}
			return ea.id > eb.id
		})
		active := make(map[int32]bool)
		frontier := make([]int32, 0, 8)
		for k, ev := range evs {
			if k > 0 && ev.t > evs[k-1].t && len(active) > 0 {
				frontier = frontier[:0]
				for id := range active {
					if kids[id] == 0 {
						frontier = append(frontier, id)
					}
				}
				share := float64(ev.t-evs[k-1].t) / float64(len(frontier))
				for _, id := range frontier {
					self[id] += share
				}
			}
			p := spans[ev.id].parent
			if ev.open {
				active[ev.id] = true
				if p >= 0 && active[p] {
					kids[p]++
				}
			} else {
				delete(active, ev.id)
				if p >= 0 && active[p] {
					kids[p]--
				}
			}
		}
	}
	return self
}

// layerTotals aggregates spans by name: count, summed duration and
// summed self time (nanoseconds).
type layerTotal struct {
	n         int
	dur, self float64
}

func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := make(map[string]*layerTotal)
	for i, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.name] = lt
		}
		lt.n++
		lt.dur += float64(s.end - s.start)
		lt.self += self[i]
	}
	return out
}
