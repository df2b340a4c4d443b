// Command securememd serves multi-tenant secure-memory pools over HTTP:
// every tenant's address space spreads across a pool of placement groups,
// each an independent securemem engine (optionally channel-interleaved),
// with admission control, write coalescing, per-tenant metrics and
// checkpoint-based crash recovery (see internal/server).
//
// Tenants come from repeated -tenant specs, a JSON -config file, or both.
// With -state, an existing checkpoint is loaded on start — the daemon
// restores every controller, models the outage as a crash, recovers each
// placement group and prints one structured recovery report per tenant —
// and a new checkpoint is written on graceful shutdown (SIGTERM/SIGINT
// drain). Bad configurations exit 2 with a structured field-level error;
// serving or checkpoint failures exit 1.
//
// Usage:
//
//	securememd -tenant name=alpha,scheme=Steins-SC,pool=1M,pgs=4,channels=2 \
//	           -state /var/lib/securememd/alpha.ckpt -listen 127.0.0.1:8080
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"steins/internal/server"
	"steins/internal/snapshot"
	"steins/securemem"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// parseBytes parses a byte count with an optional binary K/M/G suffix
// ("KiB"/"MiB"/"GiB" spellings included): "64K" is 65536.
func parseBytes(s string) (uint64, error) {
	mult := uint64(1)
	for _, suf := range []struct {
		s string
		m uint64
	}{{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10}} {
		if strings.HasSuffix(s, suf.s) {
			s, mult = strings.TrimSuffix(s, suf.s), suf.m
			break
		}
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// parseTenantSpec parses one -tenant value: comma-separated key=value
// pairs. Malformed specs are rejected with the same structured
// *server.ConfigError shape pool validation uses, so callers can tell
// which key of which tenant was wrong.
func parseTenantSpec(s string) (server.TenantConfig, error) {
	var tc server.TenantConfig
	bad := func(field, value, reason string) error {
		return &server.ConfigError{Tenant: tc.Name, Field: field, Value: value, Reason: reason}
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || v == "" {
			return tc, bad("tenant", kv, "want key=value")
		}
		var err error
		switch k {
		case "name":
			tc.Name = v
		case "scheme":
			tc.Scheme = securemem.Scheme(v)
		case "pool":
			if tc.PoolBytes, err = parseBytes(v); err != nil {
				return tc, bad("pool", v, "want a byte count (binary K/M/G suffixes ok)")
			}
		case "pgs":
			if tc.PGs, err = strconv.Atoi(v); err != nil {
				return tc, bad("pgs", v, "want a placement-group count")
			}
		case "channels":
			if tc.Channels, err = strconv.Atoi(v); err != nil {
				return tc, bad("channels", v, "want a channel count")
			}
		case "interleave":
			tc.Interleave = v
		case "inflight":
			if tc.MaxInFlight, err = strconv.Atoi(v); err != nil {
				return tc, bad("inflight", v, "want a request bound")
			}
		case "queue":
			if tc.MaxQueuedOps, err = strconv.Atoi(v); err != nil {
				return tc, bad("queue", v, "want an operation bound")
			}
		case "batch":
			if tc.BatchOps, err = strconv.Atoi(v); err != nil {
				return tc, bad("batch", v, "want an operations-per-epoch bound")
			}
		case "cache":
			var b uint64
			if b, err = parseBytes(v); err != nil {
				return tc, bad("cache", v, "want a byte count")
			}
			tc.MetaCacheBytes = int(b)
		case "seed":
			if tc.KeySeed, err = strconv.ParseUint(v, 0, 64); err != nil {
				return tc, bad("seed", v, "want a key seed")
			}
		default:
			return tc, bad(k, v, "unknown tenant spec key (have name, scheme, pool, pgs, channels, interleave, inflight, queue, batch, cache, seed)")
		}
	}
	return tc, nil
}

// loadConfigFile merges a JSON server.Config file into cfg (file tenants
// first, flag tenants appended by the caller).
func loadConfigFile(path string) (server.Config, error) {
	var cfg server.Config
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// run is the testable body: 0 on a clean shutdown, 1 on a serving or
// checkpoint failure, 2 on a bad configuration.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("securememd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen    = fs.String("listen", "127.0.0.1:8080", "listen address (host:port; port 0 picks one)")
		config    = fs.String("config", "", "JSON configuration file (server.Config shape)")
		statePath = fs.String("state", "", "checkpoint file: restored (then crash-recovered) on start when present, written on graceful shutdown")
		metricsOn = fs.Bool("metrics", false, "attach per-controller metrics collectors (richer /metrics)")
		printCfg  = fs.Bool("print-config", false, "validate, print the normalized configuration as JSON and exit")
	)
	var tenants []server.TenantConfig
	fs.Func("tenant", "tenant spec: key=value[,key=value...] with keys name, scheme, pool, pgs, channels, interleave, inflight, queue, batch, cache, seed (repeatable)", func(s string) error {
		tc, err := parseTenantSpec(s)
		if err != nil {
			return err
		}
		tenants = append(tenants, tc)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var cfg server.Config
	if *config != "" {
		var err error
		if cfg, err = loadConfigFile(*config); err != nil {
			fmt.Fprintf(stderr, "securememd: %v\n", err)
			return 2
		}
	}
	cfg.Tenants = append(cfg.Tenants, tenants...)
	cfg.Metrics = cfg.Metrics || *metricsOn
	cfg, err := cfg.Validate()
	if err != nil {
		fmt.Fprintf(stderr, "securememd: %v\n", err)
		return 2
	}
	if *printCfg {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(cfg)
		return 0
	}

	pool, err := server.NewPool(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "securememd: %v\n", err)
		return 2
	}

	if *statePath != "" {
		if _, err := os.Stat(*statePath); err == nil {
			st, err := snapshot.LoadFile[snapshot.ServerState](*statePath)
			if err != nil {
				fmt.Fprintf(stderr, "securememd: load checkpoint: %v\n", err)
				return 1
			}
			if err := pool.RestoreState(st); err != nil {
				fmt.Fprintf(stderr, "securememd: restore checkpoint: %v\n", err)
				return 1
			}
			for _, rep := range pool.CrashRecoverAll() {
				line, _ := json.Marshal(rep)
				fmt.Fprintf(stdout, "securememd: recovery %s\n", line)
			}
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "securememd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "securememd: serving %d tenants on %s\n", len(cfg.Tenants), ln.Addr())
	srv := &http.Server{Handler: pool.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "securememd: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stdout, "securememd: %v: draining\n", s)
	}

	// Graceful shutdown: stop the HTTP frontend first (no new
	// connections, in-flight handlers complete — the pool is still
	// serving, so they finish), then drain the pool to a quiesced batch
	// boundary, then checkpoint that final state.
	if err := srv.Shutdown(context.Background()); err != nil {
		fmt.Fprintf(stderr, "securememd: %v\n", err)
	}
	pool.Drain()
	if *statePath != "" {
		st, err := pool.State()
		if err != nil {
			fmt.Fprintf(stderr, "securememd: checkpoint: %v\n", err)
			return 1
		}
		if err := snapshot.SaveFile(*statePath, st); err != nil {
			fmt.Fprintf(stderr, "securememd: checkpoint: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "securememd: checkpoint saved to %s\n", *statePath)
	}
	return 0
}
