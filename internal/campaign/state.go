// Campaign checkpoint/resume: the aggregated report plus the generating
// config, gob-encoded inside the shared snapshot envelope under the
// adversarial-campaign payload kind. Because cases are derived purely from
// (config, index), resuming needs no simulator state — only the config,
// how many cases are done, and the aggregates so far; the resumed run's
// final report is byte-identical to an uninterrupted one.

package campaign

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"steins/internal/snapshot"
)

// savedConfig mirrors Config's serializable knobs (gob cannot encode the
// Logf func field, so the config is flattened through this shape).
type savedConfig struct {
	Cases          int
	Seed           uint64
	Schemes        []string
	Channels       []int
	Workloads      []string
	FootprintBytes uint64
	OpsPerRound    int
	MaxRounds      int
	SelfCheckEvery int
	MinimizeBudget int
	ForceDegraded  bool
}

func (s savedConfig) config() Config {
	return Config{
		Cases: s.Cases, Seed: s.Seed, Schemes: s.Schemes, Channels: s.Channels,
		Workloads: s.Workloads, FootprintBytes: s.FootprintBytes,
		OpsPerRound: s.OpsPerRound, MaxRounds: s.MaxRounds,
		SelfCheckEvery: s.SelfCheckEvery, MinimizeBudget: s.MinimizeBudget,
		ForceDegraded: s.ForceDegraded,
	}
}

func saved(cfg *Config) savedConfig {
	return savedConfig{
		Cases: cfg.Cases, Seed: cfg.Seed, Schemes: cfg.Schemes, Channels: cfg.Channels,
		Workloads: cfg.Workloads, FootprintBytes: cfg.FootprintBytes,
		OpsPerRound: cfg.OpsPerRound, MaxRounds: cfg.MaxRounds,
		SelfCheckEvery: cfg.SelfCheckEvery, MinimizeBudget: cfg.MinimizeBudget,
		ForceDegraded: cfg.ForceDegraded,
	}
}

// State is the serialized campaign checkpoint.
type State struct {
	Config savedConfig
	Report Report // Report.Cases = cases completed so far
}

// SaveCheckpoint atomically writes a checkpoint to path.
func SaveCheckpoint(path string, cfg *Config, rep *Report) error {
	st := State{Config: saved(cfg), Report: *rep}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&st); err != nil {
		return fmt.Errorf("campaign: encode checkpoint: %w", err)
	}
	if err := snapshot.SaveEnvelope(path, snapshot.KindAdversarial, payload.Bytes()); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint; failures wrap the snapshot envelope
// sentinels.
func LoadCheckpoint(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	payload, err := snapshot.ReadEnvelope(bytes.NewReader(data), snapshot.KindAdversarial)
	if err != nil {
		return nil, err
	}
	st := new(State)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("%w: gob decode: %v", snapshot.ErrCorrupt, err)
	}
	if st.Report.Cases > st.Config.Cases {
		return nil, fmt.Errorf("%w: checkpoint claims %d/%d cases done",
			snapshot.ErrCorrupt, st.Report.Cases, st.Config.Cases)
	}
	return st, nil
}

// Resume continues a checkpointed campaign to completion, checkpointing
// every saveEvery cases back to the same path when saveEvery > 0.
func Resume(path string, saveEvery int, logf func(string, ...any)) (*Report, error) {
	st, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	cfg := st.Config.config()
	cfg.Logf = logf
	return RunFrom(cfg, &st.Report, path, saveEvery)
}
