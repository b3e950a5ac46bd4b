package evaluator

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/space"
	"repro/internal/store"
)

func TestTraceRoundTrip(t *testing.T) {
	in := Trace{
		{Config: space.Config{3, 4}, Lambda: -0.25},
		{Config: space.Config{5, 6}, Lambda: -1e-9},
	}
	var buf bytes.Buffer
	if err := SaveTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost points: %d vs %d", len(out), len(in))
	}
	for i := range in {
		if !out[i].Config.Equal(in[i].Config) || out[i].Lambda != in[i].Lambda {
			t.Errorf("point %d: %+v vs %+v", i, out[i], in[i])
		}
	}
}

// TestRestoreRoundTrip drives persist→restore through the bulk path: a
// recorded campaign is saved with SaveTrace, read back with LoadTrace and
// preloaded into a fresh evaluator, which must leave the support store with the
// same contents in the same insertion order, answer exact revisits
// without simulating, and keep the new evaluator's stats untouched.
func TestRestoreRoundTrip(t *testing.T) {
	calls := 0
	sim := SimulatorFunc{NumVars: 2, Fn: func(c space.Config) (float64, error) {
		calls++
		return -float64(c[0]*3 + c[1]), nil
	}}
	rec := &RecordingSimulator{Inner: sim}
	ev, err := New(rec, Options{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []space.Config{{4, 4}, {4, 6}, {6, 4}, {9, 9}} {
		if _, err := ev.Evaluate(c); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := SaveTrace(&buf, rec.Trace); err != nil {
		t.Fatal(err)
	}

	ev2, err := New(sim, Options{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ev2.Preload(loaded.Entries()); err != nil || n != len(rec.Trace) {
		t.Errorf("Preload loaded %d entries (err %v), want %d", n, err, len(rec.Trace))
	}
	want := ev.Store().Entries()
	got := ev2.Store().Entries()
	if len(got) != len(want) {
		t.Fatalf("restored store has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Config.Equal(want[i].Config) || got[i].Lambda != want[i].Lambda {
			t.Errorf("restored entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s := ev2.Stats(); s.NSim != 0 || s.NInterp != 0 {
		t.Errorf("Preload touched the activity counters: %+v", s)
	}
	// A revisit of a restored point is a store hit, not a simulation.
	before := calls
	res, err := ev2.Evaluate(space.Config{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Simulated || res.Lambda != -16 || calls != before {
		t.Errorf("revisit after restore: %+v (simulator calls %d -> %d)", res, before, calls)
	}
}

// TestPreloadRejectsDimensionMismatch preloads a batch holding one
// 3-variable entry into a 2-variable evaluator: Preload must return an
// error and store none of the batch, and the next Evaluate must answer
// normally (it used to panic in the neighbour scan on the stray entry).
func TestPreloadRejectsDimensionMismatch(t *testing.T) {
	sim := SimulatorFunc{NumVars: 2, Fn: func(c space.Config) (float64, error) {
		return -float64(c[0] + c[1]), nil
	}}
	ev, err := New(sim, Options{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := ev.Preload([]store.Entry{
		{Config: space.Config{1, 3}, Lambda: -4},
		{Config: space.Config{1, 2, 3}, Lambda: -6},
	})
	if err == nil || n != 0 {
		t.Fatalf("Preload of a 3-variable entry = (%d, %v), want an error", n, err)
	}
	if got := ev.Store().Len(); got != 0 {
		t.Fatalf("rejected Preload stored %d entries, want 0", got)
	}
	res, err := ev.Evaluate(space.Config{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda != -3 || res.Source != Simulated {
		t.Fatalf("Evaluate after a rejected Preload = %+v, want simulated -3", res)
	}
}

func TestLoadTraceRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json",
		"wrong version": `{"version": 99, "points": [{"config":[1],"lambda":0}]}`,
		"empty":         `{"version": 1, "points": []}`,
		"ragged":        `{"version": 1, "points": [{"config":[1],"lambda":0},{"config":[1,2],"lambda":0}]}`,
	}
	for name, payload := range cases {
		if _, err := LoadTrace(strings.NewReader(payload)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSavedTraceIsIndependent(t *testing.T) {
	cfg := space.Config{1, 2}
	in := Trace{{Config: cfg, Lambda: 1}}
	var buf bytes.Buffer
	if err := SaveTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	cfg[0] = 99 // mutating the source must not corrupt a reload
	out, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Config[0] != 1 {
		t.Error("saved trace aliased the caller's config")
	}
}
