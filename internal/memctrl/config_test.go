package memctrl_test

import (
	"errors"
	"testing"

	"steins/internal/memctrl"
	"steins/internal/scheme/wb"
)

// TestValidateTable covers both construction paths: DefaultConfig output
// must pass unchanged, and hand-built configurations with degenerate
// sizes are normalized while unbuildable cache/data sizes are rejected
// with a structured *ConfigError naming the field.
func TestValidateTable(t *testing.T) {
	base := func() memctrl.Config { return memctrl.DefaultConfig(1<<20, false) }
	cases := []struct {
		name      string
		mutate    func(*memctrl.Config)
		wantField string                           // "" means valid
		check     func(*testing.T, memctrl.Config) // post-normalization assertions
	}{
		{name: "default-gc", mutate: func(*memctrl.Config) {}},
		{name: "default-sc", mutate: func(c *memctrl.Config) { *c = memctrl.DefaultConfig(1<<20, true) }},
		{
			name:   "negative-nv-buffer-normalizes",
			mutate: func(c *memctrl.Config) { c.NVBufferBytes = -64 },
			check: func(t *testing.T, c memctrl.Config) {
				if c.NVBufferBytes != 0 {
					t.Fatalf("NVBufferBytes = %d, want normalized to 0", c.NVBufferBytes)
				}
			},
		},
		{
			name:   "negative-record-cache-normalizes",
			mutate: func(c *memctrl.Config) { c.RecordCacheLines = -1 },
			check: func(t *testing.T, c memctrl.Config) {
				if c.RecordCacheLines != 0 {
					t.Fatalf("RecordCacheLines = %d, want normalized to 0", c.RecordCacheLines)
				}
			},
		},
		{
			name:      "zero-data",
			mutate:    func(c *memctrl.Config) { c.DataBytes = 0 },
			wantField: "DataBytes",
		},
		{
			name:      "zero-cache",
			mutate:    func(c *memctrl.Config) { c.MetaCacheBytes = 0 },
			wantField: "MetaCacheBytes",
		},
		{
			name:      "negative-cache",
			mutate:    func(c *memctrl.Config) { c.MetaCacheBytes = -4096 },
			wantField: "MetaCacheBytes",
		},
		{
			name:      "cache-above-ceiling",
			mutate:    func(c *memctrl.Config) { c.MetaCacheBytes = 1 << 50 },
			wantField: "MetaCacheBytes",
		},
		{
			name:      "cache-below-one-set",
			mutate:    func(c *memctrl.Config) { c.MetaCacheBytes = 256; c.MetaCacheWays = 8 },
			wantField: "MetaCacheBytes",
		},
		{
			name:      "one-way-cache",
			mutate:    func(c *memctrl.Config) { c.MetaCacheWays = 1 },
			wantField: "MetaCacheWays",
		},
		{
			name:      "zero-ways",
			mutate:    func(c *memctrl.Config) { c.MetaCacheWays = 0 },
			wantField: "MetaCacheWays",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			got, err := cfg.Validate()
			if tc.wantField != "" {
				var ce *memctrl.ConfigError
				if !errors.As(err, &ce) {
					t.Fatalf("Validate() error = %v, want *ConfigError", err)
				}
				if ce.Field != tc.wantField {
					t.Fatalf("ConfigError.Field = %q, want %q (%v)", ce.Field, tc.wantField, ce)
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate() = %v, want ok", err)
			}
			if tc.check != nil {
				tc.check(t, got)
			} else if got != cfg {
				t.Fatalf("Validate() changed an already-valid config:\nin  %+v\nout %+v", cfg, got)
			}
		})
	}
}

// TestNewNormalizesHandBuiltConfig pins the New path: a hand-built Config
// with a negative NV buffer must build a controller whose effective
// configuration matches the normalized form (no silent divergence from
// default behaviour), and an unbuildable one must surface the structured
// error, not an obscure downstream panic.
func TestNewNormalizesHandBuiltConfig(t *testing.T) {
	cfg := memctrl.DefaultConfig(1<<20, false)
	cfg.NVBufferBytes = -3
	c := memctrl.New(cfg, wb.Factory)
	if got := c.Config().NVBufferBytes; got != 0 {
		t.Fatalf("controller NVBufferBytes = %d, want normalized 0", got)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New with a 0-byte cache did not panic")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %v is not an error", r)
		}
		var ce *memctrl.ConfigError
		if !errors.As(err, &ce) || ce.Field != "MetaCacheBytes" {
			t.Fatalf("panic = %v, want *ConfigError on MetaCacheBytes", err)
		}
	}()
	bad := memctrl.DefaultConfig(1<<20, false)
	bad.MetaCacheBytes = 0
	memctrl.New(bad, wb.Factory)
}
