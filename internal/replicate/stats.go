package replicate

import "time"

// ReplStats is the replication summary behind the /v1/stats "repl" section
// and the ensemfdetd_repl_* metrics. Follower, Primary and Node each fill it
// from their own counters; primary-side fields are zero on a follower and
// vice versa.
type ReplStats struct {
	// Role is "primary", "follower", or "promoting" (mid-failover).
	Role string `json:"role"`
	// Epoch is the failover term this node has adopted; Fenced reports a
	// deposed primary — it observed a higher term and rejects local writes.
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced,omitempty"`
	// Promotions counts this process's successful follower→primary
	// transitions.
	Promotions uint64 `json:"promotions,omitempty"`
	// Follower side.
	Primary           string  `json:"primary,omitempty"`
	PrimaryVersion    uint64  `json:"primary_version,omitempty"`
	AppliedVersion    uint64  `json:"applied_version,omitempty"`
	VersionsBehind    uint64  `json:"versions_behind"`
	SecondsBehind     float64 `json:"seconds_behind"`
	RecordsApplied    uint64  `json:"records_applied,omitempty"`
	TombstonesApplied uint64  `json:"tombstones_applied,omitempty"`
	Resyncs           uint64  `json:"resyncs,omitempty"`
	Reconnects        uint64  `json:"reconnects,omitempty"`
	JournalErrors     uint64  `json:"journal_errors,omitempty"`
	// EpochAdopts counts higher terms adopted in place; EpochResyncs counts
	// boundary resyncs off an abandoned timeline; EpochRejects counts
	// responses refused because the sender's term was below ours.
	EpochAdopts  uint64 `json:"epoch_adopts,omitempty"`
	EpochResyncs uint64 `json:"epoch_resyncs,omitempty"`
	EpochRejects uint64 `json:"epoch_rejects,omitempty"`
	// BackoffSeconds is cumulative time spent sleeping between retries.
	BackoffSeconds float64 `json:"backoff_seconds,omitempty"`
	Ready          bool    `json:"ready"`
	// Both sides: bytes shipped over the replication channel (sent for a
	// primary, received for a follower).
	BytesShipped uint64 `json:"bytes_shipped"`
	// Primary side. EpochFences counts requests that advertised a higher
	// epoch than ours — each one is an observation that this node was
	// deposed.
	TailRequests uint64 `json:"tail_requests,omitempty"`
	TailRecords  uint64 `json:"tail_records,omitempty"`
	FilesShipped uint64 `json:"files_shipped,omitempty"`
	EpochFences  uint64 `json:"epoch_fences,omitempty"`
}

// Stats returns the tailing half's summary in the follower role.
func (f *Follower) Stats() *ReplStats {
	behind, seconds, _ := f.Lag()
	ready, _ := f.Ready()
	return &ReplStats{
		Role:              "follower",
		Epoch:             f.epoch(),
		Primary:           f.base,
		PrimaryVersion:    f.primaryVersion.Load(),
		AppliedVersion:    f.cfg.Graph.Version(),
		VersionsBehind:    behind,
		SecondsBehind:     seconds,
		RecordsApplied:    f.recordsApplied.Load(),
		TombstonesApplied: f.tombstonesApplied.Load(),
		Resyncs:           f.resyncs.Load(),
		Reconnects:        f.reconnects.Load(),
		JournalErrors:     f.journalErrs.Load(),
		EpochAdopts:       f.epochAdopts.Load(),
		EpochResyncs:      f.epochResyncs.Load(),
		EpochRejects:      f.epochRejects.Load(),
		BackoffSeconds:    time.Duration(f.backoffNanos.Load()).Seconds(),
		Ready:             ready,
		BytesShipped:      f.bytesShipped.Load(),
	}
}

// Stats returns the serving half's summary in the primary role. Epoch and
// Fenced come from the store, so a primary deposed by a higher term reports
// it however it came to be primary.
func (p *Primary) Stats() *ReplStats {
	epoch, _, owned := p.cfg.Store.Epoch()
	return &ReplStats{
		Role:         "primary",
		Epoch:        epoch,
		Fenced:       !owned,
		Ready:        true,
		BytesShipped: p.bytesShipped.Load(),
		TailRequests: p.tailRequests.Load(),
		TailRecords:  p.tailRecords.Load(),
		FilesShipped: p.filesShipped.Load(),
		EpochFences:  p.epochFences.Load(),
	}
}

// Stats returns the live role's summary — the serving half's after a
// promotion, the tailing half's while following — under the node's own
// role, readiness and promotion count, which survive the role flip.
func (n *Node) Stats() *ReplStats {
	var rs *ReplStats
	if p := n.Primary(); p != nil {
		rs = p.Stats()
	} else if f := n.Follower(); f != nil {
		rs = f.Stats()
	} else {
		rs = &ReplStats{Epoch: n.Epoch()}
	}
	rs.Role = n.Role()
	rs.Ready, _ = n.Ready()
	rs.Promotions = n.Promotions()
	return rs
}
