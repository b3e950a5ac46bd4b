package evaluator

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/space"
)

// traceFile is the on-disk JSON schema of a recorded trajectory.
type traceFile struct {
	// Version guards against future schema changes.
	Version int          `json:"version"`
	Points  []tracePoint `json:"points"`
}

type tracePoint struct {
	Config []int   `json:"config"`
	Lambda float64 `json:"lambda"`
}

// currentTraceVersion is the schema version written by SaveTrace.
const currentTraceVersion = 1

// SaveTrace serialises a recorded trajectory as JSON. Recording a
// trajectory is the expensive simulation-only part of the Table I
// protocol; persisting it lets replay studies (different d, Nn,min,
// variogram, interpolator) re-run without re-simulating.
func SaveTrace(w io.Writer, trace Trace) error {
	tf := traceFile{Version: currentTraceVersion, Points: make([]tracePoint, len(trace))}
	for i, tp := range trace {
		tf.Points[i] = tracePoint{Config: append([]int(nil), tp.Config...), Lambda: tp.Lambda}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(tf); err != nil {
		return fmt.Errorf("evaluator: encoding trace: %w", err)
	}
	return nil
}

// LoadTrace deserialises a trajectory written by SaveTrace, validating
// the schema version and the dimensional consistency of the points.
func LoadTrace(r io.Reader) (Trace, error) {
	var tf traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("evaluator: decoding trace: %w", err)
	}
	if tf.Version != currentTraceVersion {
		return nil, fmt.Errorf("evaluator: trace schema version %d, want %d", tf.Version, currentTraceVersion)
	}
	if len(tf.Points) == 0 {
		return nil, errors.New("evaluator: trace has no points")
	}
	nv := len(tf.Points[0].Config)
	trace := make(Trace, len(tf.Points))
	for i, p := range tf.Points {
		if len(p.Config) != nv {
			return nil, fmt.Errorf("evaluator: trace point %d has %d variables, want %d", i, len(p.Config), nv)
		}
		trace[i] = TracePoint{Config: space.Config(append([]int(nil), p.Config...)), Lambda: p.Lambda}
	}
	return trace, nil
}
