// Package trace is the execution-trace observability subsystem for the
// CONGEST engine: every run can record a typed, structured event stream —
// round boundaries, per-round counters, fault fates, node state
// transitions, RNG draw totals, and (optionally) driver timing — and that
// stream becomes a first-class artifact that can be stored, diffed,
// replayed, exported to chrome://tracing, or scraped as Prometheus
// metrics.
//
// The package is deliberately engine-agnostic: it defines the Event
// vocabulary and the Sink interface, and internal/congest emits into it.
// That direction keeps trace free of engine imports, so Replay and Bisect
// can compare traces from any producer.
//
// Determinism is the organizing idea. Events split into two classes:
//
//   - deterministic events (round boundaries, counters, fault fates, node
//     transitions, halts, RNG draw totals) are bit-identical across the
//     sequential, worker-pool, and distributed drivers for the same seed —
//     they are covered by Fingerprint and compared by Bisect;
//   - advisory events (shard timings, merge time, rebalances, frames)
//     describe how a particular driver executed the run and legitimately
//     differ between drivers; Fingerprint and Bisect ignore them.
//
// A Recorder is the standard capture point: it keeps the most recent
// events in a bounded ring buffer, maintains a running fingerprint of the
// deterministic stream in O(1) space, and forwards every event to any
// number of attached sinks (JSONL file, Chrome trace-event export,
// in-memory capture, Prometheus registry).
package trace

import "fmt"

// Type enumerates the event kinds the engine emits.
type Type uint8

// Event kinds. They start at 1 so a zero-valued event is detectably
// invalid. The field comments give each type's Event field layout.
const (
	// EvRoundStart opens a round (round 0 is Init). No payload fields.
	EvRoundStart Type = iota + 1
	// EvVertexFate reports a fault plan's non-Up verdict for a vertex this
	// round: V = vertex, X = fate (1 = down, 2 = gone).
	EvVertexFate
	// EvNodeState is a program-defined node state transition emitted via
	// congest.Context.Emit: V = vertex, X = program code (the mis/proto
	// announcement kinds by convention), Y = program value.
	EvNodeState
	// EvHalt reports that a node halted this round: V = vertex.
	EvHalt
	// EvDrop reports a message discarded by fault injection: V = sender,
	// W = recipient, X = 1 when the loss was a crashed recipient, 0 for a
	// plan drop. The round is the delivery round the loss happened in
	// (for a crashed recipient, consumption would have been round+1).
	EvDrop
	// EvDelay reports a message deferred by the fault plan: V = sender,
	// W = recipient, X = extra rounds in flight.
	EvDelay
	// EvRNG reports the run's randomness consumption after a round:
	// X = cumulative node-stream draws delta for the round, Y = fault-
	// stream draws delta.
	EvRNG
	// EvRoundEnd closes a round: V = nodes still live, X = messages sent
	// this round (any fate), Y = messages delivered this round,
	// Z = messages dropped this round.
	EvRoundEnd
	// EvShardFlow is the advisory per-shard traffic matrix entry:
	// V = sender shard, W = recipient shard, X = messages sent this round
	// on that pair. The engine no longer emits it; the value is kept so
	// the Type numbering (and with it every fingerprint) stays stable.
	EvShardFlow
	// EvShardBusy is the advisory per-shard sweep timing from the pool
	// driver: V = shard, X = busy nanoseconds, Y = live nodes in the shard.
	EvShardBusy
	// EvMerge is the advisory coordinator delivery timing from the pool
	// driver: X = merge nanoseconds.
	EvMerge
	// EvRebalance is the advisory shard-rebalance record from the pool
	// driver: the coordinator re-partitioned the vertex range by live
	// weight before the round's sweep. X = total live vertices at the
	// rebalance, Y = the run's cumulative rebalance count. Shard layout
	// depends on the worker count, so the event is advisory.
	EvRebalance
	// EvRepair is one incremental repair by the dynamic-MIS engine
	// (internal/dynmis): Round = the update-batch index (0 = bootstrap),
	// V = repair-region size, W = free (re-run) vertices in the region,
	// X = CONGEST rounds the repair run took, Y = the repair run's
	// deterministic trace fingerprint, Z = messages delivered. Region
	// discovery and the repair run are deterministic for a fixed
	// (graph, seed, update stream), so the event is deterministic.
	EvRepair
	// EvFrame is the advisory per-shard transport record from the
	// distributed driver: one round-trip of round-batched frames between
	// the coordinator and a shard process. V = shard, X = frame bytes sent
	// to the shard, Y = frame bytes received from it, Z = round-trip
	// latency in nanoseconds. Frame sizes and latency depend on the codec,
	// the socket, and the host, so the event is advisory.
	EvFrame
	// EvRespawn is the advisory crash-recovery record from the distributed
	// driver: a shard process died (or its connection broke) and the
	// coordinator respawned it and replayed its round-input log to catch
	// it up. Round = the round being retried, V = shard, X = rounds
	// replayed during fast-forward. Process death is not derived from the
	// run seed, so the event is advisory.
	EvRespawn
)

// typeNames maps Type to its wire name (JSONL "t" field).
var typeNames = [...]string{
	EvRoundStart: "round-start",
	EvVertexFate: "vertex-fate",
	EvNodeState:  "node-state",
	EvHalt:       "halt",
	EvDrop:       "drop",
	EvDelay:      "delay",
	EvRNG:        "rng",
	EvRoundEnd:   "round-end",
	EvShardFlow:  "shard-flow",
	EvShardBusy:  "shard-busy",
	EvMerge:      "merge",
	EvRebalance:  "rebalance",
	EvRepair:     "repair",
	EvFrame:      "frame",
	EvRespawn:    "respawn",
}

// String returns the event type's wire name.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// TypeFromString inverts String; it returns 0 for an unknown name.
func TypeFromString(s string) Type {
	for t, name := range typeNames {
		if name == s {
			return Type(t)
		}
	}
	return 0
}

// Deterministic reports whether events of this type are bit-identical
// across engine drivers for the same seed. Advisory types (timings, shard
// flow) depend on the driver's shard layout and wall clock and are
// excluded from Fingerprint and Bisect.
func (t Type) Deterministic() bool {
	switch t {
	case EvShardFlow, EvShardBusy, EvMerge, EvRebalance, EvFrame, EvRespawn:
		return false
	}
	return true
}

// Event is one trace record. The meaning of V, W, X, Y, Z depends on Type;
// unused fields are zero. The struct is flat and comparable so recording
// is allocation-free and traces can be diffed with ==.
type Event struct {
	// Type is the event kind.
	Type Type
	// Round is the engine round the event belongs to (0 = Init).
	Round int32
	// V and W are the subject vertices or shards (see the Type constants).
	// Vertex identities are always external (original graph) IDs, never
	// the engine's relabeled internal order — misvet's idspace analyzer
	// enforces the boundary.
	//
	//idspace:external
	V, W int32
	// X, Y and Z are type-specific values.
	X, Y, Z int64
}

// String renders the event for diagnostics and divergence reports.
func (e Event) String() string {
	switch e.Type {
	case EvRoundStart:
		return fmt.Sprintf("round-start r=%d", e.Round)
	case EvVertexFate:
		fate := "down"
		if e.X == 2 {
			fate = "gone"
		}
		return fmt.Sprintf("vertex-fate r=%d v=%d %s", e.Round, e.V, fate)
	case EvNodeState:
		return fmt.Sprintf("node-state r=%d v=%d code=%d value=%d", e.Round, e.V, e.X, e.Y)
	case EvHalt:
		return fmt.Sprintf("halt r=%d v=%d", e.Round, e.V)
	case EvDrop:
		cause := "plan"
		if e.X == 1 {
			cause = "dead-recipient"
		}
		return fmt.Sprintf("drop r=%d %d→%d (%s)", e.Round, e.V, e.W, cause)
	case EvDelay:
		return fmt.Sprintf("delay r=%d %d→%d +%d rounds", e.Round, e.V, e.W, e.X)
	case EvRNG:
		return fmt.Sprintf("rng r=%d node-draws=%d fault-draws=%d", e.Round, e.X, e.Y)
	case EvRoundEnd:
		return fmt.Sprintf("round-end r=%d live=%d sent=%d delivered=%d dropped=%d",
			e.Round, e.V, e.X, e.Y, e.Z)
	case EvShardFlow:
		return fmt.Sprintf("shard-flow r=%d %d→%d msgs=%d", e.Round, e.V, e.W, e.X)
	case EvShardBusy:
		return fmt.Sprintf("shard-busy r=%d shard=%d busy=%dns live=%d", e.Round, e.V, e.X, e.Y)
	case EvMerge:
		return fmt.Sprintf("merge r=%d %dns", e.Round, e.X)
	case EvRebalance:
		return fmt.Sprintf("rebalance r=%d live=%d count=%d", e.Round, e.X, e.Y)
	case EvRepair:
		return fmt.Sprintf("repair batch=%d region=%d free=%d rounds=%d fp=%#016x msgs=%d",
			e.Round, e.V, e.W, e.X, uint64(e.Y), e.Z)
	case EvFrame:
		return fmt.Sprintf("frame r=%d shard=%d out=%dB in=%dB rtt=%dns", e.Round, e.V, e.X, e.Y, e.Z)
	case EvRespawn:
		return fmt.Sprintf("respawn r=%d shard=%d replayed=%d", e.Round, e.V, e.X)
	default:
		return fmt.Sprintf("event(%d) r=%d", int(e.Type), e.Round)
	}
}

// Sink consumes a trace event stream. The engine calls Emit on the
// coordinator goroutine only, in a deterministic order for deterministic
// events; a Sink therefore does not need to be safe for concurrent Emit
// calls (a sink that is also read concurrently, like the Prometheus
// registry, synchronizes internally).
type Sink interface {
	Emit(Event)
}

// DefaultRingSize is the Recorder's default bounded-buffer capacity:
// enough for the full event stream of the repo's standard test workloads
// while bounding memory for production-scale runs.
const DefaultRingSize = 1 << 16

// Recorder is the standard capture point for a traced run: a bounded ring
// buffer of the most recent events, a running fingerprint over the
// deterministic stream, and fan-out to attached sinks. The zero value is
// not usable; construct with NewRecorder.
type Recorder struct {
	ring    []Event
	next    int
	wrapped bool
	total   uint64
	fp      uint64
	fpN     uint64
	sinks   []Sink
}

// NewRecorder builds a recorder with the given ring capacity (<= 0 means
// DefaultRingSize) that forwards every event to the attached sinks.
func NewRecorder(ringSize int, sinks ...Sink) *Recorder {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Recorder{ring: make([]Event, ringSize), fp: fnvOffset, sinks: sinks}
}

// Emit records one event: ring store, fingerprint fold, sink fan-out.
func (r *Recorder) Emit(e Event) {
	r.total++
	if e.Type.Deterministic() {
		r.fp = fpFold(r.fp, e)
		r.fpN++
	}
	r.ring[r.next] = e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
	for _, s := range r.sinks {
		s.Emit(e)
	}
}

// Events returns the buffered events in emission order. When the run
// outgrew the ring, only the most recent capacity-many events remain (the
// running fingerprint still covers the whole stream).
func (r *Recorder) Events() []Event {
	if !r.wrapped {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// Total returns the number of events emitted over the run, including any
// that have been evicted from the ring.
func (r *Recorder) Total() uint64 { return r.total }

// Fingerprint returns the running FNV-1a hash over every deterministic
// event emitted so far (evicted ones included). Two runs with equal
// fingerprints executed the same deterministic event stream; the value is
// what the golden trace tests pin and what the cross-driver matrix
// compares.
func (r *Recorder) Fingerprint() uint64 { return r.fp }

// DeterministicCount returns how many deterministic events the
// fingerprint covers.
func (r *Recorder) DeterministicCount() uint64 { return r.fpN }

// fnvOffset seeds the fingerprint accumulator (the FNV-1a offset basis,
// kept for its pedigree as a non-trivial seed); fpMix is the Murmur3
// finalizer multiplier.
const (
	fnvOffset = 0xcbf29ce484222325
	fpMix     = 0xff51afd7ed558ccd
)

// fpFold folds one event into the fingerprint accumulator, hashing every
// field in a fixed word layout. Type and Round share a word (both are
// small), so an event costs five word mixes — the fold is on the hot path
// of every traced run, which rules out byte-at-a-time hashing.
func fpFold(h uint64, e Event) uint64 {
	h = fpU64(h, uint64(e.Type)<<32|uint64(uint32(e.Round)))
	h = fpU64(h, uint64(uint32(e.V))<<32|uint64(uint32(e.W)))
	h = fpU64(h, uint64(e.X))
	h = fpU64(h, uint64(e.Y))
	h = fpU64(h, uint64(e.Z))
	return h
}

// fpU64 mixes one word into the accumulator: xor, multiply, xorshift —
// the Murmur3 finalizer step, chosen for avalanche quality at three
// operations per word.
func fpU64(h, x uint64) uint64 {
	h ^= x
	h *= fpMix
	h ^= h >> 33
	return h
}

// Fingerprint hashes a recorded event slice the same way a Recorder does
// on the fly, skipping advisory events. Fingerprint(rec.Events()) equals
// rec.Fingerprint() whenever the ring did not overflow.
func Fingerprint(events []Event) uint64 {
	h := uint64(fnvOffset)
	for _, e := range events {
		if e.Type.Deterministic() {
			h = fpFold(h, e)
		}
	}
	return h
}

// Deterministic filters a trace to its deterministic events, preserving
// order — the subset Bisect compares.
func Deterministic(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if e.Type.Deterministic() {
			out = append(out, e)
		}
	}
	return out
}
