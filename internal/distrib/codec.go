// Package distrib is the transport layer of the distributed CONGEST
// driver (congest.DriverDistributed): a length-prefixed binary frame
// codec, socket connections to shard worker processes (self-exec'd over
// unix sockets, or pre-started cmd/misnode workers over TCP), the worker
// serve loop, and the algorithm registry that lets a worker process
// construct the same node state machines the coordinator mirrors.
//
// Determinism contract. Nothing in this package draws randomness or
// makes a scheduling decision that the run can observe: the coordinator
// (internal/congest) performs every fault/RNG draw and every merge in
// global sender order, and this package only moves already-ordered
// round batches across process boundaries. The codec is fully
// deterministic (no maps, no timestamps inside deterministic payloads);
// the advisory frame-byte and latency measurements the connections take
// are reported out of band of the replay digest. Socket I/O helpers that
// must touch the wall clock (dial retries, liveness deadlines, latency
// measurements) carry //lint:advisory escapes with their reasons.
package distrib

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/faultsim"
	"repro/internal/trace"
)

// frameKind tags a protocol frame's payload. The kinds are distrib's own
// namespace (transport frames, not congest.Wire payload kinds). Zero is
// invalid so a truncated or zeroed frame is detectably corrupt.
type frameKind byte

const (
	// fkConfig is coordinator → worker: the shard's run configuration,
	// program spec and adjacency. First frame on every connection.
	fkConfig frameKind = iota + 1
	// fkHello is worker → coordinator: config accepted. It has no body.
	fkHello
	// fkRound is coordinator → worker: one round's input batch.
	fkRound
	// fkSweep is worker → coordinator: one round's output batch.
	fkSweep
	// fkFinish is coordinator → worker: the run is over, export state.
	fkFinish
	// fkOutputs is worker → coordinator: the per-vertex exported states.
	fkOutputs
	// fkError is worker → coordinator: a fatal protocol-level failure
	// (unknown algorithm, malformed input), as text. The connection is
	// dead after it.
	fkError
)

// String names the frame kind for error messages. The switch is the
// canonical kind registry: misvet's framecodec analyzer holds it to
// enumerating every declared kind.
func (k frameKind) String() string {
	//framecodec:exhaustive
	switch k {
	case fkConfig:
		return "config"
	case fkHello:
		return "hello"
	case fkRound:
		return "round"
	case fkSweep:
		return "sweep"
	case fkFinish:
		return "finish"
	case fkOutputs:
		return "outputs"
	case fkError:
		return "error"
	default:
		return fmt.Sprintf("frame-kind(%d)", byte(k))
	}
}

// maxFrameLen bounds a single frame's payload so a corrupt length prefix
// cannot drive an arbitrarily large allocation.
const maxFrameLen = 1 << 30

// encoder builds one frame payload (kind byte + body) in a reusable
// buffer. Integers use uvarint; signed fields use zigzag; RNG seeds and
// wire words use fixed 8-byte little-endian (they are uniformly random,
// varints would expand them).
type encoder struct {
	buf []byte
}

// reset starts a new payload of the given kind.
func (e *encoder) reset(k frameKind) {
	e.buf = append(e.buf[:0], byte(k))
}

func (e *encoder) u8(x byte)      { e.buf = append(e.buf, x) }
func (e *encoder) u64(x uint64)   { e.buf = binary.AppendUvarint(e.buf, x) }
func (e *encoder) i64(x int64)    { e.buf = binary.AppendVarint(e.buf, x) }
func (e *encoder) fix64(x uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, x) }

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// decoder walks one frame payload with bounds-checked reads. Every
// failure names the field being read, so a truncated or corrupt frame is
// rejected with a contextual error — never a panic.
type decoder struct {
	buf []byte
	pos int
}

// errTruncated builds the contextual decode error.
func (d *decoder) errAt(field, why string) error {
	return fmt.Errorf("distrib: frame corrupt at byte %d: %s reading %s", d.pos, why, field)
}

func (d *decoder) u8(field string) (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, d.errAt(field, "truncated")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) u64(field string) (uint64, error) {
	x, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.errAt(field, "bad uvarint")
	}
	d.pos += n
	return x, nil
}

func (d *decoder) i64(field string) (int64, error) {
	x, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.errAt(field, "bad varint")
	}
	d.pos += n
	return x, nil
}

func (d *decoder) fix64(field string) (uint64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, d.errAt(field, "truncated")
	}
	x := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return x, nil
}

// count reads a collection length and sanity-bounds it against the bytes
// actually present (each element costs at least min bytes), so a corrupt
// count cannot drive an oversized allocation.
func (d *decoder) count(field string, min int) (int, error) {
	x, err := d.u64(field)
	if err != nil {
		return 0, err
	}
	if min < 1 {
		min = 1
	}
	if x > uint64(len(d.buf)-d.pos)/uint64(min)+1 {
		return 0, d.errAt(field, "implausible count")
	}
	if x > math.MaxInt32 {
		return 0, d.errAt(field, "count overflow")
	}
	return int(x), nil
}

func (d *decoder) str(field string) (string, error) {
	n, err := d.count(field+" length", 1)
	if err != nil {
		return "", err
	}
	if d.pos+n > len(d.buf) {
		return "", d.errAt(field, "truncated")
	}
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s, nil
}

// done verifies the payload was consumed exactly.
func (d *decoder) done() error {
	if d.pos != len(d.buf) {
		return fmt.Errorf("distrib: frame has %d trailing bytes after payload", len(d.buf)-d.pos)
	}
	return nil
}

// payloadKind splits a frame payload into its kind tag and body.
func payloadKind(p []byte) (frameKind, *decoder, error) {
	if len(p) == 0 {
		return 0, nil, fmt.Errorf("distrib: empty frame payload")
	}
	return frameKind(p[0]), &decoder{buf: p, pos: 1}, nil
}

// configMsg is the fkConfig payload: the engine shard config, the
// program spec, the owned vertices' external rows (adj[i] lists the
// external IDs of the neighbors of internal vertex Lo+i, ascending — the
// ingest graph's own row), and the whole graph's internal→external ID
// map (empty for identity).
type configMsg struct {
	cfg  congest.ShardConfig
	prog Program
	adj  [][]int
	ext  []int // internal -> external IDs for the whole graph; nil = identity
}

// encodeConfig serializes a configMsg. Adjacency lists are sorted
// ascending, so neighbors encode as a first absolute ID plus deltas.
func encodeConfig(e *encoder, m configMsg) {
	e.reset(fkConfig)
	c := m.cfg
	e.u64(uint64(c.Index))
	e.u64(uint64(c.NumShards))
	e.u64(uint64(c.Lo))
	e.u64(uint64(c.Hi))
	e.u64(uint64(c.N))
	e.fix64(c.Seed)
	e.u64(uint64(c.MessageBitLimit))
	if c.Traced {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.str(c.Layout)
	e.str(m.prog.Algorithm)
	e.u64(uint64(len(m.prog.Args)))
	for _, a := range m.prog.Args {
		e.fix64(a)
	}
	e.u64(uint64(len(m.ext)))
	for _, x := range m.ext {
		e.u64(uint64(x))
	}
	for _, nbrs := range m.adj {
		e.u64(uint64(len(nbrs)))
		prev := 0
		for i, w := range nbrs {
			if i == 0 {
				e.u64(uint64(w))
			} else {
				e.u64(uint64(w - prev))
			}
			prev = w
		}
	}
}

// decodeConfig parses an fkConfig body.
func decodeConfig(d *decoder) (configMsg, error) {
	var m configMsg
	fields := []struct {
		dst  *int
		name string
	}{
		{&m.cfg.Index, "config.index"},
		{&m.cfg.NumShards, "config.num-shards"},
		{&m.cfg.Lo, "config.lo"},
		{&m.cfg.Hi, "config.hi"},
		{&m.cfg.N, "config.n"},
	}
	for _, f := range fields {
		x, err := d.u64(f.name)
		if err != nil {
			return m, err
		}
		if x > math.MaxInt32 {
			return m, d.errAt(f.name, "value overflow")
		}
		*f.dst = int(x)
	}
	seed, err := d.fix64("config.seed")
	if err != nil {
		return m, err
	}
	m.cfg.Seed = seed
	limit, err := d.u64("config.bit-limit")
	if err != nil {
		return m, err
	}
	if limit > math.MaxInt32 {
		return m, d.errAt("config.bit-limit", "value overflow")
	}
	m.cfg.MessageBitLimit = int(limit)
	traced, err := d.u8("config.traced")
	if err != nil {
		return m, err
	}
	m.cfg.Traced = traced != 0
	if m.cfg.Layout, err = d.str("config.layout"); err != nil {
		return m, err
	}
	if m.prog.Algorithm, err = d.str("config.algorithm"); err != nil {
		return m, err
	}
	nArgs, err := d.count("config.args", 8)
	if err != nil {
		return m, err
	}
	m.prog.Args = make([]uint64, nArgs)
	for i := range m.prog.Args {
		if m.prog.Args[i], err = d.fix64("config.arg"); err != nil {
			return m, err
		}
	}
	if m.cfg.Lo < 0 || m.cfg.Hi < m.cfg.Lo || m.cfg.Hi > m.cfg.N {
		//idspace:ok the shard range is an internal-order concept; the error describes it as such
		return m, fmt.Errorf("distrib: config shard range [%d, %d) invalid for n=%d", m.cfg.Lo, m.cfg.Hi, m.cfg.N)
	}
	nExt, err := d.count("config.ext", 1)
	if err != nil {
		return m, err
	}
	if nExt != 0 {
		// The ID map must be a full permutation of [0, N): anything less
		// would let a corrupt frame alias two internal vertices to one
		// external identity.
		if nExt != m.cfg.N {
			return m, fmt.Errorf("distrib: config ID map has %d entries for n=%d", nExt, m.cfg.N)
		}
		m.ext = make([]int, nExt)
		seen := make([]bool, nExt)
		for i := range m.ext {
			x, err := d.u64("config.ext-id")
			if err != nil {
				return m, err
			}
			if x >= uint64(nExt) || seen[x] {
				return m, d.errAt("config.ext-id", "not a permutation")
			}
			seen[x] = true
			m.ext[i] = int(x)
		}
	}
	m.adj = make([][]int, m.cfg.Hi-m.cfg.Lo)
	for i := range m.adj {
		deg, err := d.count("config.degree", 1)
		if err != nil {
			return m, err
		}
		nbrs := make([]int, deg)
		prev := 0
		for j := range nbrs {
			delta, err := d.u64("config.neighbor")
			if err != nil {
				return m, err
			}
			w := int(delta)
			if j > 0 {
				if delta == 0 {
					return m, d.errAt("config.neighbor", "non-ascending adjacency")
				}
				w = prev + int(delta)
			}
			if w < 0 || w >= m.cfg.N {
				return m, fmt.Errorf("distrib: config adjacency neighbor %d out of range [0, %d)", w, m.cfg.N)
			}
			nbrs[j] = w
			prev = w
		}
		m.adj[i] = nbrs
	}
	return m, d.done()
}

// encodeHello serializes the worker's post-config acknowledgement (a bare
// kind byte; the coordinator checks the empty body with done).
func encodeHello(e *encoder) {
	e.reset(fkHello)
}

// encodeRound serializes one round input.
func encodeRound(e *encoder, in congest.RoundInput) {
	e.reset(fkRound)
	e.u64(uint64(in.Round))
	e.u64(uint64(len(in.Fates)))
	for _, f := range in.Fates {
		e.u64(uint64(f.V))
		e.u8(byte(f.Fate))
	}
	e.u64(uint64(len(in.InboxLens)))
	for _, l := range in.InboxLens {
		e.u64(uint64(l))
	}
	e.u64(uint64(len(in.Inbox)))
	for _, msg := range in.Inbox {
		encodeMessage(e, msg)
	}
}

// encodeMessage serializes one delivered message (sender + wire payload).
func encodeMessage(e *encoder, msg congest.Message) {
	e.u64(uint64(msg.From))
	e.u8(byte(msg.Wire.Kind))
	e.u64(uint64(msg.Wire.Bits))
	e.fix64(msg.Wire.A)
	e.fix64(msg.Wire.B)
}

// decodeMessage parses one delivered message.
func decodeMessage(d *decoder) (congest.Message, error) {
	var msg congest.Message
	from, err := d.u64("message.from")
	if err != nil {
		return msg, err
	}
	if from > math.MaxInt32 {
		return msg, d.errAt("message.from", "value overflow")
	}
	msg.From = int(from)
	kind, err := d.u8("message.kind")
	if err != nil {
		return msg, err
	}
	msg.Wire.Kind = congest.WireKind(kind)
	bits, err := d.u64("message.bits")
	if err != nil {
		return msg, err
	}
	if bits > congest.MaxWireBits {
		return msg, d.errAt("message.bits", "bit size exceeds the CONGEST budget")
	}
	msg.Wire.Bits = uint16(bits)
	if msg.Wire.A, err = d.fix64("message.a"); err != nil {
		return msg, err
	}
	if msg.Wire.B, err = d.fix64("message.b"); err != nil {
		return msg, err
	}
	return msg, nil
}

// decodeScratch holds the grow-only buffers one connection reuses across
// frame decodes: steady-state rounds re-fill previously allocated slices
// instead of making fresh ones per frame. The decoded structures alias the
// scratch, so a result is valid only until the same scratch's next decode
// — which matches how both ends consume frames (a round input is fully
// swept, a round output fully applied and digested, before the next
// frame is read).
type decodeScratch struct {
	fates  []congest.VertexFate
	lens   []int32
	inbox  []congest.Message
	pkts   []congest.Packet
	events []trace.Event
	halted []int32
	vals   []uint64
}

// grown returns s resized to n elements, reallocating only on growth.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decodeRound parses an fkRound body into freshly allocated slices.
// Connections that decode many frames should use decodeScratch.round.
func decodeRound(d *decoder) (congest.RoundInput, error) {
	var sc decodeScratch
	return sc.round(d)
}

// round parses an fkRound body, reusing the scratch buffers.
func (sc *decodeScratch) round(d *decoder) (congest.RoundInput, error) {
	var in congest.RoundInput
	round, err := d.u64("round.number")
	if err != nil {
		return in, err
	}
	if round > math.MaxInt32 {
		return in, d.errAt("round.number", "value overflow")
	}
	in.Round = int(round)
	nFates, err := d.count("round.fates", 2)
	if err != nil {
		return in, err
	}
	sc.fates = grown(sc.fates, nFates)
	in.Fates = sc.fates
	for i := range in.Fates {
		v, err := d.u64("round.fate-vertex")
		if err != nil {
			return in, err
		}
		if v > math.MaxInt32 {
			return in, d.errAt("round.fate-vertex", "value overflow")
		}
		fate, err := d.u8("round.fate")
		if err != nil {
			return in, err
		}
		if fate != byte(faultsim.VertexDown) && fate != byte(faultsim.VertexGone) {
			return in, d.errAt("round.fate", fmt.Sprintf("invalid fate %d (want down or gone)", fate))
		}
		in.Fates[i] = congest.VertexFate{V: int32(v), Fate: int32(fate)}
	}
	nLens, err := d.count("round.inbox-lens", 1)
	if err != nil {
		return in, err
	}
	sc.lens = grown(sc.lens, nLens)
	in.InboxLens = sc.lens
	for i := range in.InboxLens {
		l, err := d.u64("round.inbox-len")
		if err != nil {
			return in, err
		}
		if l > math.MaxInt32 {
			return in, d.errAt("round.inbox-len", "value overflow")
		}
		in.InboxLens[i] = int32(l)
	}
	nMsgs, err := d.count("round.inbox", 12)
	if err != nil {
		return in, err
	}
	sc.inbox = grown(sc.inbox, nMsgs)
	in.Inbox = sc.inbox
	for i := range in.Inbox {
		if in.Inbox[i], err = decodeMessage(d); err != nil {
			return in, err
		}
	}
	return in, d.done()
}

// encodeSweep serializes one round output. The advisory transport fields
// are connection-side measurements and do not travel the wire.
func encodeSweep(e *encoder, out congest.RoundOutput) {
	e.reset(fkSweep)
	e.u64(uint64(len(out.Packets)))
	for _, p := range out.Packets {
		e.u64(uint64(p.To))
		e.u64(uint64(p.From))
		e.u8(byte(p.Wire.Kind))
		e.u64(uint64(p.Wire.Bits))
		e.fix64(p.Wire.A)
		e.fix64(p.Wire.B)
	}
	e.u64(uint64(len(out.Events)))
	for _, ev := range out.Events {
		e.u8(byte(ev.Type))
		e.u64(uint64(ev.Round))
		e.i64(int64(ev.V))
		e.i64(int64(ev.W))
		e.i64(ev.X)
		e.i64(ev.Y)
		e.i64(ev.Z)
	}
	e.u64(uint64(len(out.Halted)))
	for _, v := range out.Halted {
		e.u64(uint64(v))
	}
	e.fix64(out.Draws)
	e.str(out.Err)
}

// decodeSweep parses an fkSweep body into freshly allocated slices.
// Connections that decode many frames should use decodeScratch.sweep.
func decodeSweep(d *decoder) (congest.RoundOutput, error) {
	var sc decodeScratch
	return sc.sweep(d)
}

// sweep parses an fkSweep body, reusing the scratch buffers.
func (sc *decodeScratch) sweep(d *decoder) (congest.RoundOutput, error) {
	var out congest.RoundOutput
	nPkts, err := d.count("sweep.packets", 13)
	if err != nil {
		return out, err
	}
	sc.pkts = grown(sc.pkts, nPkts)
	out.Packets = sc.pkts
	for i := range out.Packets {
		var p congest.Packet
		to, err := d.u64("sweep.packet-to")
		if err != nil {
			return out, err
		}
		from, err := d.u64("sweep.packet-from")
		if err != nil {
			return out, err
		}
		if to > math.MaxInt32 || from > math.MaxInt32 {
			return out, d.errAt("sweep.packet", "vertex overflow")
		}
		p.To, p.From = int32(to), int32(from)
		kind, err := d.u8("sweep.packet-kind")
		if err != nil {
			return out, err
		}
		p.Wire.Kind = congest.WireKind(kind)
		bits, err := d.u64("sweep.packet-bits")
		if err != nil {
			return out, err
		}
		if bits > congest.MaxWireBits {
			return out, d.errAt("sweep.packet-bits", "bit size exceeds the CONGEST budget")
		}
		p.Wire.Bits = uint16(bits)
		if p.Wire.A, err = d.fix64("sweep.packet-a"); err != nil {
			return out, err
		}
		if p.Wire.B, err = d.fix64("sweep.packet-b"); err != nil {
			return out, err
		}
		out.Packets[i] = p
	}
	nEvents, err := d.count("sweep.events", 7)
	if err != nil {
		return out, err
	}
	sc.events = grown(sc.events, nEvents)
	out.Events = sc.events
	for i := range out.Events {
		var ev trace.Event
		t, err := d.u8("sweep.event-type")
		if err != nil {
			return out, err
		}
		ev.Type = trace.Type(t)
		round, err := d.u64("sweep.event-round")
		if err != nil {
			return out, err
		}
		if round > math.MaxInt32 {
			return out, d.errAt("sweep.event-round", "value overflow")
		}
		ev.Round = int32(round)
		v, err := d.i64("sweep.event-v")
		if err != nil {
			return out, err
		}
		w, err := d.i64("sweep.event-w")
		if err != nil {
			return out, err
		}
		if v > math.MaxInt32 || v < math.MinInt32 || w > math.MaxInt32 || w < math.MinInt32 {
			return out, d.errAt("sweep.event", "vertex overflow")
		}
		ev.V, ev.W = int32(v), int32(w)
		if ev.X, err = d.i64("sweep.event-x"); err != nil {
			return out, err
		}
		if ev.Y, err = d.i64("sweep.event-y"); err != nil {
			return out, err
		}
		if ev.Z, err = d.i64("sweep.event-z"); err != nil {
			return out, err
		}
		out.Events[i] = ev
	}
	nHalted, err := d.count("sweep.halted", 1)
	if err != nil {
		return out, err
	}
	sc.halted = grown(sc.halted, nHalted)
	out.Halted = sc.halted
	for i := range out.Halted {
		v, err := d.u64("sweep.halted-vertex")
		if err != nil {
			return out, err
		}
		if v > math.MaxInt32 {
			return out, d.errAt("sweep.halted-vertex", "value overflow")
		}
		out.Halted[i] = int32(v)
	}
	if out.Draws, err = d.fix64("sweep.draws"); err != nil {
		return out, err
	}
	if out.Err, err = d.str("sweep.err"); err != nil {
		return out, err
	}
	return out, d.done()
}

// encodeFinish serializes the end-of-run request.
func encodeFinish(e *encoder) {
	e.reset(fkFinish)
}

// encodeOutputs serializes the worker's exported per-vertex states.
func encodeOutputs(e *encoder, vals []uint64) {
	e.reset(fkOutputs)
	e.u64(uint64(len(vals)))
	for _, x := range vals {
		e.fix64(x)
	}
}

// decodeOutputs parses an fkOutputs body into a fresh slice.
func decodeOutputs(d *decoder) ([]uint64, error) {
	var sc decodeScratch
	return sc.outputs(d)
}

// outputs parses an fkOutputs body, reusing the scratch buffer.
func (sc *decodeScratch) outputs(d *decoder) ([]uint64, error) {
	n, err := d.count("outputs.count", 8)
	if err != nil {
		return nil, err
	}
	sc.vals = grown(sc.vals, n)
	vals := sc.vals
	for i := range vals {
		if vals[i], err = d.fix64("outputs.value"); err != nil {
			return nil, err
		}
	}
	return vals, d.done()
}

// encodeError serializes a fatal worker-side failure.
func encodeError(e *encoder, msg string) {
	e.reset(fkError)
	e.str(msg)
}

// decodeError parses an fkError body.
func decodeError(d *decoder) (string, error) {
	msg, err := d.str("error.message")
	if err != nil {
		return "", err
	}
	return msg, d.done()
}
