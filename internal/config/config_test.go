package config

import (
	"strings"
	"testing"
	"time"
)

func env(m map[string]string) func(string) string {
	return func(k string) string { return m[k] }
}

func TestDefaults(t *testing.T) {
	cfg, err := FromGetenv(env(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":8080" || cfg.Bench != "fir" || cfg.Size != "small" || cfg.Seed != 1 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if cfg.D != 3 || cfg.NnMin != 1 || cfg.MaxSupport != 10 {
		t.Errorf("unexpected kriging defaults: %+v", cfg)
	}
	if cfg.DrainGrace != 30*time.Second || cfg.RequestTimeout != 60*time.Second {
		t.Errorf("unexpected timeout defaults: %+v", cfg)
	}
	if len(cfg.Tenants) != 0 || cfg.StateDir != "" || cfg.DisableCoalescing {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
}

func TestFromGetenv(t *testing.T) {
	cfg, err := FromGetenv(env(map[string]string{
		"EVALD_ADDR":            "127.0.0.1:9000",
		"EVALD_BENCH":           "iir",
		"EVALD_SIZE":            "full",
		"EVALD_SEED":            "42",
		"EVALD_WORKERS":         "4",
		"EVALD_MAX_SIMS":        "8",
		"EVALD_STATE_DIR":       "/var/lib/evald",
		"EVALD_D":               "4.5",
		"EVALD_NNMIN":           "2",
		"EVALD_MAX_SUPPORT":     "16",
		"EVALD_API_KEYS":        "alice:s3cret:8, bob:hunter2",
		"EVALD_DRAIN_GRACE":     "5s",
		"EVALD_REQUEST_TIMEOUT": "250ms",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != "127.0.0.1:9000" || cfg.Bench != "iir" || cfg.Size != "full" || cfg.Seed != 42 {
		t.Errorf("service identity: %+v", cfg)
	}
	if cfg.Workers != 4 || cfg.MaxSims != 8 || cfg.StateDir != "/var/lib/evald" {
		t.Errorf("capacity/state: %+v", cfg)
	}
	if cfg.D != 4.5 || cfg.NnMin != 2 || cfg.MaxSupport != 16 {
		t.Errorf("kriging knobs: %+v", cfg)
	}
	if cfg.DrainGrace != 5*time.Second || cfg.RequestTimeout != 250*time.Millisecond {
		t.Errorf("timeouts: %+v", cfg)
	}
	want := []Tenant{{Name: "alice", Key: "s3cret", Quota: 8}, {Name: "bob", Key: "hunter2"}}
	if len(cfg.Tenants) != len(want) {
		t.Fatalf("tenants = %+v, want %+v", cfg.Tenants, want)
	}
	for i, w := range want {
		if cfg.Tenants[i] != w {
			t.Errorf("tenant %d = %+v, want %+v", i, cfg.Tenants[i], w)
		}
	}
}

func TestRejects(t *testing.T) {
	cases := []struct {
		name string
		env  map[string]string
		want string // substring of the error
	}{
		{"bad size", map[string]string{"EVALD_SIZE": "huge"}, "EVALD_SIZE"},
		{"bad seed", map[string]string{"EVALD_SEED": "-1"}, "EVALD_SEED"},
		{"bad workers", map[string]string{"EVALD_WORKERS": "many"}, "EVALD_WORKERS"},
		{"negative workers", map[string]string{"EVALD_WORKERS": "-2"}, "negative"},
		{"negative max sims", map[string]string{"EVALD_MAX_SIMS": "-1"}, "negative"},
		{"bad d", map[string]string{"EVALD_D": "wide"}, "EVALD_D"},
		{"bad bool", map[string]string{"EVALD_DISABLE_COALESCING": "sure"}, "EVALD_DISABLE_COALESCING"},
		{"bad grace", map[string]string{"EVALD_DRAIN_GRACE": "5 parsecs"}, "EVALD_DRAIN_GRACE"},
		{"negative timeout", map[string]string{"EVALD_REQUEST_TIMEOUT": "-1s"}, "negative"},
		{"tenant no key", map[string]string{"EVALD_API_KEYS": "alice"}, "name:key"},
		{"tenant empty name", map[string]string{"EVALD_API_KEYS": ":k:1"}, "empty"},
		{"tenant bad quota", map[string]string{"EVALD_API_KEYS": "alice:k:lots"}, "quota"},
		{"tenant negative quota", map[string]string{"EVALD_API_KEYS": "alice:k:-1"}, "quota"},
		{"duplicate tenant", map[string]string{"EVALD_API_KEYS": "a:k1,a:k2"}, "duplicate"},
		{"shared key", map[string]string{"EVALD_API_KEYS": "a:k,b:k"}, "share"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromGetenv(env(tc.env))
			if err == nil {
				t.Fatalf("no error for %v", tc.env)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseTenantsEmpty(t *testing.T) {
	for _, s := range []string{"", "  ", ",", " , "} {
		ts, err := ParseTenants(s)
		if err != nil || len(ts) != 0 {
			t.Errorf("ParseTenants(%q) = %v, %v; want empty, nil", s, ts, err)
		}
	}
}

// TestOverloadConfig pins the resilience knob: EVALD_DISABLE_SHED parses
// into its field and the default stays safe (shedding on).
func TestOverloadConfig(t *testing.T) {
	cfg, err := FromGetenv(env(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DisableShedding {
		t.Errorf("unexpected resilience defaults: %+v", cfg)
	}

	cfg, err = FromGetenv(env(map[string]string{"EVALD_DISABLE_SHED": "1"}))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.DisableShedding {
		t.Errorf("DisableShedding not set: %+v", cfg)
	}
}

// TestOverloadConfigRejects covers validation of the resilience knob.
func TestOverloadConfigRejects(t *testing.T) {
	cases := []struct {
		name string
		env  map[string]string
		want string
	}{
		{"bad shed", map[string]string{"EVALD_DISABLE_SHED": "sometimes"}, "EVALD_DISABLE_SHED"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromGetenv(env(tc.env))
			if err == nil {
				t.Fatalf("no error for %v", tc.env)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseTenantsPolicy covers the 4-field tenant grammar: the policy
// field, the empty-quota form, and the rejects around them.
func TestParseTenantsPolicy(t *testing.T) {
	ts, err := ParseTenants("alice:s3cret:8:degraded, bob:hunter2::degraded, carol:k")
	if err != nil {
		t.Fatal(err)
	}
	want := []Tenant{
		{Name: "alice", Key: "s3cret", Quota: 8, AllowDegraded: true},
		{Name: "bob", Key: "hunter2", AllowDegraded: true},
		{Name: "carol", Key: "k"},
	}
	if len(ts) != len(want) {
		t.Fatalf("tenants = %+v, want %+v", ts, want)
	}
	for i, w := range want {
		if ts[i] != w {
			t.Errorf("tenant %d = %+v, want %+v", i, ts[i], w)
		}
	}

	for _, bad := range []struct{ spec, want string }{
		{"alice:k:8:vip", "policy"},
		{"alice:k:8:", "policy"},
		{"alice:k:8:degraded:extra", "name:key"},
	} {
		if _, err := ParseTenants(bad.spec); err == nil {
			t.Errorf("ParseTenants(%q) accepted", bad.spec)
		} else if !strings.Contains(err.Error(), bad.want) {
			t.Errorf("ParseTenants(%q) error %q does not mention %q", bad.spec, err, bad.want)
		}
	}
}
