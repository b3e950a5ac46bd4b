package bench

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/evaluator"
	"repro/internal/optim"
	"repro/internal/space"
	"repro/internal/store"
)

// BenchmarkNearestKRecorded times the store's capped neighbour search on
// a paper-shaped store instead of a synthetic hypercube:
//
//	go test ./internal/bench -run '^$' -bench NearestKRecorded -benchmem
//
// Setup records six hevc (Small, simulator seed 1) campaigns with
// cmd/wlopt's evaluator settings — D 3, NnMin 1, MaxSupport 10, kriging
// in the dB domain — min+1 and max-1 at -35, -40 and -45 dB, merges
// their simulated points into one store (396 entries) and keeps every
// configuration the optimisers asked for (9,014 queries). ns/op is one
// NearestKInto(d = 3, k = 10) over those queries in campaign order, the
// call every query the evaluator cannot answer exactly makes.
func BenchmarkNearestKRecorded(b *testing.B) {
	st, queries, err := recordedNearestK()
	if err != nil {
		b.Fatal(err)
	}
	var nb store.Neighborhood
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.NearestKInto(&nb, queries[i%len(queries)], 3, 10)
	}
	b.ReportMetric(float64(st.Len()), "entries")
	b.ReportMetric(float64(len(queries)), "queries")
}

var (
	recordedOnce    sync.Once
	recordedStore   *store.Store
	recordedQueries []space.Config
	recordedErr     error
)

// recordedNearestK records the campaigns once per test binary.
func recordedNearestK() (*store.Store, []space.Config, error) {
	recordedOnce.Do(func() {
		recordedStore, recordedQueries, recordedErr = recordHEVCCampaigns()
	})
	return recordedStore, recordedQueries, recordedErr
}

func recordHEVCCampaigns() (*store.Store, []space.Config, error) {
	sp, err := SpecByName("hevc", Small)
	if err != nil {
		return nil, nil, err
	}
	sim, err := sp.NewSimulator(1)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	var queries []space.Config
	var entries []store.Entry
	seen := make(map[string]bool)
	for _, maxMinusOne := range []bool{false, true} {
		for _, db := range []float64{-35, -40, -45} {
			ev, err := evaluator.New(sim, evaluator.Options{
				D: 3, NnMin: 1, MaxSupport: 10,
				Transform: evaluator.NegPowerToDB, Untransform: evaluator.DBToNegPower,
			})
			if err != nil {
				return nil, nil, err
			}
			o := &queryRecorder{inner: ev.Oracle(1)}
			lmin := -math.Pow(10, db/10)
			if maxMinusOne {
				_, err = optim.MaxMinusOne(ctx, o, optim.MaxMinusOneOptions{LambdaMin: lmin, Bounds: sp.Bounds})
			} else {
				_, err = optim.MinPlusOne(ctx, o, optim.MinPlusOneOptions{LambdaMin: lmin, Bounds: sp.Bounds})
			}
			if err != nil {
				return nil, nil, err
			}
			queries = append(queries, o.queries...)
			for _, e := range ev.Store().Entries() {
				if !seen[e.Config.Key()] {
					seen[e.Config.Key()] = true
					entries = append(entries, e)
				}
			}
		}
	}
	st := store.New()
	st.AddBatch(entries)
	return st, queries, nil
}

// queryRecorder forwards both oracle forms to the evaluator's
// sequential oracle and keeps every configuration asked for.
type queryRecorder struct {
	inner   *evaluator.EvaluatorOracle
	queries []space.Config
}

func (o *queryRecorder) Evaluate(ctx context.Context, cfg space.Config) (float64, error) {
	o.queries = append(o.queries, cfg.Clone())
	return o.inner.Evaluate(ctx, cfg)
}

func (o *queryRecorder) EvaluateBatch(ctx context.Context, cfgs []space.Config) ([]float64, error) {
	for _, c := range cfgs {
		o.queries = append(o.queries, c.Clone())
	}
	return o.inner.EvaluateBatch(ctx, cfgs)
}
