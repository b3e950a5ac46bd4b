package config

import (
	"strings"
	"testing"
	"time"
)

func TestSimdDefaults(t *testing.T) {
	cfg, err := SimdFromGetenv(env(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := Simd{
		Addr: ":9090", Bench: "fir", Size: "small", Seed: 1,
		Capacity: 1, DrainGrace: 30 * time.Second,
	}
	if cfg != want {
		t.Errorf("defaults = %+v, want %+v", cfg, want)
	}
}

func TestSimdFromGetenv(t *testing.T) {
	cfg, err := SimdFromGetenv(env(map[string]string{
		"SIMD_ADDR":        "127.0.0.1:9999",
		"SIMD_BENCH":       "sleep",
		"SIMD_SIZE":        "full",
		"SIMD_SEED":        "7",
		"SIMD_KEY":         "s3cret",
		"SIMD_CAPACITY":    "4",
		"SIMD_DRAIN_GRACE": "5s",
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := Simd{
		Addr: "127.0.0.1:9999", Bench: "sleep", Size: "full", Seed: 7,
		Key: "s3cret", Capacity: 4, DrainGrace: 5 * time.Second,
	}
	if cfg != want {
		t.Errorf("config = %+v, want %+v", cfg, want)
	}
}

func TestSimdRejects(t *testing.T) {
	cases := []struct {
		name string
		env  map[string]string
		frag string
	}{
		{"bad size", map[string]string{"SIMD_SIZE": "medium"}, "SIMD_SIZE"},
		{"bad seed", map[string]string{"SIMD_SEED": "x"}, "SIMD_SEED"},
		{"zero capacity", map[string]string{"SIMD_CAPACITY": "0"}, "SIMD_CAPACITY"},
		{"bad grace", map[string]string{"SIMD_DRAIN_GRACE": "soon"}, "SIMD_DRAIN_GRACE"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := SimdFromGetenv(env(c.env))
			if err == nil || !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("err = %v, want mention of %s", err, c.frag)
			}
		})
	}
}

func TestSimWorkersFromGetenv(t *testing.T) {
	cfg, err := FromGetenv(env(map[string]string{
		"EVALD_SIM_WORKERS":    "http://sim-a:9090:keyA,http://sim-b:9090",
		"EVALD_SIM_WORKER_CAP": "3",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SimWorkers) != 2 {
		t.Fatalf("SimWorkers = %+v, want 2 specs", cfg.SimWorkers)
	}
	if cfg.SimWorkers[0].URL != "http://sim-a:9090" || cfg.SimWorkers[0].Key != "keyA" {
		t.Errorf("spec 0 = %+v, want url http://sim-a:9090 key keyA", cfg.SimWorkers[0])
	}
	if cfg.SimWorkers[1].URL != "http://sim-b:9090" || cfg.SimWorkers[1].Key != "" {
		t.Errorf("spec 1 = %+v, want url http://sim-b:9090 no key", cfg.SimWorkers[1])
	}
	if cfg.SimWorkerCap != 3 {
		t.Errorf("cap = %d, want 3", cfg.SimWorkerCap)
	}
}

func TestSimWorkersRejects(t *testing.T) {
	for name, m := range map[string]map[string]string{
		"not a url":    {"EVALD_SIM_WORKERS": "sim-a:9090"},
		"negative cap": {"EVALD_SIM_WORKER_CAP": "-1"},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := FromGetenv(env(m)); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}
