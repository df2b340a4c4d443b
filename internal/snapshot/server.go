// Server-state checkpoints: the serving layer's complete engine state —
// every tenant's placement groups, every placement group's channel
// controllers — wrapped in the same versioned CRC-protected envelope the
// run snapshots use, under its own payload kind. A daemon drained on
// SIGTERM saves one of these; a restarting daemon loads it, restores the
// controllers, then models the outage as Crash + Recover per placement
// group.
//
// Tenant configuration deliberately does NOT ride along (mirroring run
// snapshots, which resolve workloads through the trace registry): the
// restarting server is built from its own configuration and the restore
// fails with a structured error if the shape (tenants, placement groups,
// channels) does not match the checkpoint.

package snapshot

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"steins/internal/memctrl"
)

// PGState is one placement group: its channel controllers, in channel
// order.
type PGState struct {
	Channels []memctrl.ControllerState
}

// TenantState is one tenant's pool at a batch boundary.
type TenantState struct {
	Name   string
	Scheme string
	// AppliedSeq is the tenant's linearization cursor: how many operations
	// had been admitted to the request log when the checkpoint was taken.
	AppliedSeq uint64
	PGs        []PGState
}

// ServerState is the complete serving-layer checkpoint, tenants sorted by
// name so identical states produce identical bytes.
type ServerState struct {
	Tenants []TenantState
}

// EncodeServer serializes a server state into KindServer envelope bytes.
func EncodeServer(st *ServerState) ([]byte, error) {
	payload, err := encode(st)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := WriteEnvelope(&out, KindServer, payload); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// DecodeServer reads a KindServer envelope and decodes the server state.
// Malformed input yields the envelope sentinels (ErrTruncated, ErrBadMagic,
// ErrVersion, ErrChecksum, ErrCorrupt); it never panics.
func DecodeServer(r io.Reader) (*ServerState, error) {
	payload, err := ReadEnvelope(r, KindServer)
	if err != nil {
		return nil, err
	}
	return decodeServer(payload)
}

// decodeServer gob-decodes a KindServer payload.
func decodeServer(payload []byte) (*ServerState, error) {
	st := &ServerState{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("%w: server state payload: %v", ErrCorrupt, err)
	}
	return st, nil
}

// SaveServerFile writes a server checkpoint through SaveEnvelope, so a
// crash mid-save can never truncate the previous good checkpoint.
func SaveServerFile(path string, st *ServerState) error {
	payload, err := encode(st)
	if err != nil {
		return err
	}
	return SaveEnvelope(path, KindServer, payload)
}

// LoadServerFile reads a server checkpoint file, decoding the payload in
// place in the file's bytes.
func LoadServerFile(path string) (*ServerState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	payload, err := envelopePayload(data, KindServer)
	if err != nil {
		return nil, err
	}
	return decodeServer(payload)
}
