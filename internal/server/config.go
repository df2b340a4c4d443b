package server

import (
	"fmt"
	"regexp"

	"steins/internal/memctrl"
	"steins/internal/trace"
	"steins/securemem"
)

// Defaults for the admission-control and batching knobs.
const (
	DefaultMaxInFlight  = 64
	DefaultMaxQueuedOps = 1024
	DefaultBatchOps     = 128
	DefaultRetryAfter   = 1 // seconds advertised on 429
)

// TenantConfig describes one tenant's placement-group pool.
type TenantConfig struct {
	// Name identifies the tenant in URLs, metrics labels and checkpoints;
	// required, limited to [A-Za-z0-9_-].
	Name string `json:"name"`
	// Scheme is the crash-recovery scheme of every placement group.
	Scheme securemem.Scheme `json:"scheme"`
	// PGs is the number of placement groups the pool spreads over;
	// default 1. Each PG is an independent securemem engine owning a
	// disjoint slice of the tenant's address space.
	PGs int `json:"pgs,omitempty"`
	// PoolBytes is the tenant's total protected capacity; required.
	PoolBytes uint64 `json:"pool_bytes"`
	// Channels interleaves each PG across this many channel controllers
	// (the securemem channel engine); default 1.
	Channels int `json:"channels,omitempty"`
	// Interleave routes tenant addresses across PGs: "line" (64 B
	// round-robin), "page" (4 KiB round-robin) or "hash" (scattered
	// lines); default "line". Every mode routes with trace.Route, the
	// sharded engine's own map: a pure address function that compacts each
	// PG's addresses into PoolBytes/PGs and survives restarts. A checkpoint
	// records the mode and restores only into a tenant of the same one.
	Interleave string `json:"interleave,omitempty"`
	// MaxInFlight bounds concurrently admitted requests; a request beyond
	// the bound is rejected with 429 and Retry-After. 0 selects the
	// default (64); negative is invalid.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// MaxQueuedOps bounds the write-coalescing queue depth, in
	// operations. 0 selects the default (1024); negative is invalid.
	MaxQueuedOps int `json:"max_queued_ops,omitempty"`
	// BatchOps caps how many queued operations are coalesced into one
	// engine epoch. 0 selects the default (128); negative is invalid.
	BatchOps int `json:"batch_ops,omitempty"`
	// MetaCacheBytes sizes each channel controller's metadata cache
	// (0: the engine default).
	MetaCacheBytes int `json:"meta_cache_bytes,omitempty"`
	// KeySeed derives the tenant's (deterministic) secret key.
	KeySeed uint64 `json:"key_seed,omitempty"`
}

// Config configures a Pool.
type Config struct {
	Tenants []TenantConfig `json:"tenants"`
	// Metrics attaches per-controller collectors so /metrics exports
	// per-phase distributions and occupancy series in addition to the
	// always-on accounting.
	Metrics bool `json:"metrics,omitempty"`
	// RetryAfterSeconds is advertised on 429 responses (0: default 1).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// RecordLog retains every admitted operation (and the bytes each read
	// returned) as the tenant's linearized request log. Test harnesses
	// replay it against a single-threaded reference; production daemons
	// leave it off.
	RecordLog bool `json:"-"`
}

// ConfigError reports a tenant-pool configuration field the server cannot
// be built from, mirroring memctrl.ConfigError's structured shape so
// harnesses can tell WHICH knob of WHICH tenant was wrong.
type ConfigError struct {
	Tenant string // the tenant name, empty for top-level errors
	Field  string // the TenantConfig/Config field name
	Value  string // the rejected value, rendered
	Reason string
}

func (e *ConfigError) Error() string {
	if e.Tenant == "" {
		return fmt.Sprintf("server: invalid Config.%s = %s: %s", e.Field, e.Value, e.Reason)
	}
	return fmt.Sprintf("server: tenant %q: invalid %s = %s: %s", e.Tenant, e.Field, e.Value, e.Reason)
}

var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9_-]+$`)

// parseInterleave maps a TenantConfig.Interleave spelling to its mode.
func parseInterleave(s string) (trace.Interleave, error) {
	if s == "" {
		return trace.InterleaveLine, nil
	}
	return trace.ParseInterleave(s)
}

// pgBytes returns the per-PG engine capacity for a validated tenant: the
// ShardBytes slice trace.Route compacts each PG's addresses into.
func pgBytes(tc *TenantConfig, iv trace.Interleave) uint64 {
	return trace.ShardBytes(tc.PoolBytes, tc.PGs, iv)
}

// Validate checks a configuration and returns a normalized copy: zero
// knobs with defaults are filled in, while fields no pool can be built
// from are rejected with a structured *ConfigError.
func (cfg Config) Validate() (Config, error) {
	if cfg.RetryAfterSeconds < 0 {
		return cfg, &ConfigError{Field: "RetryAfterSeconds",
			Value: fmt.Sprint(cfg.RetryAfterSeconds), Reason: "must be non-negative"}
	}
	if cfg.RetryAfterSeconds == 0 {
		cfg.RetryAfterSeconds = DefaultRetryAfter
	}
	if len(cfg.Tenants) == 0 {
		return cfg, &ConfigError{Field: "Tenants", Value: "[]", Reason: "at least one tenant required"}
	}
	cfg.Tenants = append([]TenantConfig(nil), cfg.Tenants...)
	seen := map[string]bool{}
	for i := range cfg.Tenants {
		tc := &cfg.Tenants[i]
		if tc.Name == "" || !tenantNameRE.MatchString(tc.Name) {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "Name",
				Value: fmt.Sprintf("%q", tc.Name), Reason: "required, limited to [A-Za-z0-9_-]"}
		}
		if seen[tc.Name] {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "Name",
				Value: fmt.Sprintf("%q", tc.Name), Reason: "duplicate tenant name"}
		}
		seen[tc.Name] = true
		valid := false
		for _, s := range securemem.Schemes() {
			if tc.Scheme == s {
				valid = true
				break
			}
		}
		if !valid {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "Scheme",
				Value: fmt.Sprintf("%q", tc.Scheme), Reason: "unknown scheme"}
		}
		if tc.PGs == 0 {
			tc.PGs = 1
		}
		if tc.PGs < 0 {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "PGs",
				Value: fmt.Sprint(tc.PGs), Reason: "placement-group count must be positive"}
		}
		if tc.Channels == 0 {
			tc.Channels = 1
		}
		if tc.Channels < 0 {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "Channels",
				Value: fmt.Sprint(tc.Channels), Reason: "channel count must be positive"}
		}
		iv, err := parseInterleave(tc.Interleave)
		if err != nil {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "Interleave",
				Value: fmt.Sprintf("%q", tc.Interleave), Reason: "must be line, page or hash"}
		}
		if tc.Interleave == "" {
			tc.Interleave = iv.String()
		}
		if tc.PoolBytes == 0 {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "PoolBytes",
				Value: "0", Reason: "no protected capacity"}
		}
		chunk := iv.ChunkBytes()
		if tc.PoolBytes%(chunk*uint64(tc.PGs)) != 0 {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "PoolBytes",
				Value: fmt.Sprint(tc.PoolBytes),
				Reason: fmt.Sprintf("must be a multiple of PGs×%d-byte interleave chunks = %d",
					chunk, chunk*uint64(tc.PGs))}
		}
		if per := pgBytes(tc, iv); per%(uint64(tc.Channels)*64) != 0 {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "Channels",
				Value: fmt.Sprint(tc.Channels),
				Reason: fmt.Sprintf("per-PG capacity %d is not a multiple of Channels×64 = %d",
					per, uint64(tc.Channels)*64)}
		}
		if tc.MaxInFlight < 0 {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "MaxInFlight",
				Value: fmt.Sprint(tc.MaxInFlight), Reason: "must be non-negative"}
		}
		if tc.MaxInFlight == 0 {
			tc.MaxInFlight = DefaultMaxInFlight
		}
		if tc.MaxQueuedOps < 0 {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "MaxQueuedOps",
				Value: fmt.Sprint(tc.MaxQueuedOps), Reason: "must be non-negative"}
		}
		if tc.MaxQueuedOps == 0 {
			tc.MaxQueuedOps = DefaultMaxQueuedOps
		}
		if tc.BatchOps < 0 {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "BatchOps",
				Value: fmt.Sprint(tc.BatchOps), Reason: "must be non-negative"}
		}
		if tc.BatchOps == 0 {
			tc.BatchOps = DefaultBatchOps
		}
		if tc.MetaCacheBytes < 0 || tc.MetaCacheBytes > memctrl.MaxMetaCacheBytes {
			return cfg, &ConfigError{Tenant: tc.Name, Field: "MetaCacheBytes",
				Value:  fmt.Sprint(tc.MetaCacheBytes),
				Reason: fmt.Sprintf("must be in [0, %d]", memctrl.MaxMetaCacheBytes)}
		}
	}
	return cfg, nil
}
