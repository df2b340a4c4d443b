// Server-state checkpoints: the serving layer's complete engine state —
// every tenant's placement groups, every placement group's channel
// controllers — wrapped in the same versioned CRC-protected envelope and
// sectioned payload (payload.go) the run snapshots use, under its own
// payload kind. A daemon drained on SIGTERM saves one of these; a
// restarting daemon loads it, restores the controllers, then models the
// outage as Crash + Recover per placement group.
//
// Tenant configuration deliberately does NOT ride along (mirroring run
// snapshots, which resolve workloads through the trace registry): the
// restarting server is built from its own configuration and the restore
// fails with a structured error if the shape (tenants, interleave,
// placement groups, channels) does not match the checkpoint.

package snapshot

import "steins/internal/memctrl"

// PGState is one placement group: its channel controllers, in channel
// order.
type PGState struct {
	Channels []memctrl.ControllerState
}

// TenantState is one tenant's pool at a batch boundary.
type TenantState struct {
	Name   string
	Scheme string
	// Interleave is the tenant's trace.Interleave spelling, which fixes
	// where each address lives in its placement groups. Checkpoints
	// written before it was recorded leave it empty.
	Interleave string
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

func (*ServerState) kind() uint32 { return KindServer }

// controllers lists every controller state of st in tenant/PG/channel
// order, the order the payload's column sections follow.
func (st *ServerState) controllers() []*memctrl.ControllerState {
	var out []*memctrl.ControllerState
	for i := range st.Tenants {
		for k := range st.Tenants[i].PGs {
			pg := &st.Tenants[i].PGs[k]
			for c := range pg.Channels {
				out = append(out, &pg.Channels[c])
			}
		}
	}
	return out
}

func (st *ServerState) skeleton() *ServerState {
	sk := &ServerState{Tenants: append([]TenantState(nil), st.Tenants...)}
	for i := range sk.Tenants {
		pgs := make([]PGState, len(sk.Tenants[i].PGs))
		for k, pg := range sk.Tenants[i].PGs {
			pgs[k].Channels = append([]memctrl.ControllerState(nil), pg.Channels...)
		}
		sk.Tenants[i].PGs = pgs
	}
	for _, cs := range sk.controllers() {
		emptyTables(cs)
	}
	return sk
}

// LoadServerFile is LoadFile[ServerState]. It and SaveServerFile remain
// for the benchmark module (bench/), which still calls them.
func LoadServerFile(path string) (*ServerState, error) { return LoadFile[ServerState](path) }

// SaveServerFile is SaveFile for a server state.
func SaveServerFile(path string, st *ServerState) error { return SaveFile(path, st) }
