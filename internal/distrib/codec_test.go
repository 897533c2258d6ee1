// Frame codec hardening: exhaustive round-trip property tests over every
// proto wire kind and boundary bit size, plus adversarial decoding —
// every truncated prefix and a fuzz sweep of corrupt payloads must be
// rejected with a contextual error, never a panic, and corrupt counts
// must not drive oversized allocations.
package distrib

import (
	"math"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/mis/proto"
	"repro/internal/rng"
	"repro/internal/trace"
)

// protoKinds is the exhaustive wire-kind set programs put on the wire.
func protoKinds() []congest.WireKind {
	return []congest.WireKind{
		proto.WirePriority, proto.WireEpochPriority, proto.WireFlag,
		proto.WireDegree, proto.WireDesire, proto.WireColor,
		proto.WireLevel, proto.WireForestEdge,
	}
}

// boundaryBits are the payload sizes worth probing: empty, single bit,
// around the byte boundary, and the engine's 128-bit CONGEST cap.
func boundaryBits() []uint16 {
	return []uint16{0, 1, 7, 8, 63, 64, 127, uint16(congest.MaxWireBits)}
}

// boundaryWords are the 64-bit payload word values worth probing.
func boundaryWords() []uint64 {
	return []uint64{0, 1, math.MaxUint32, math.MaxUint64 - 1, math.MaxUint64}
}

// decodeAs reruns payloadKind + the kind's decoder, returning the decode
// error (nil on success). It is the single entry point the adversarial
// tests drive so no decoder path can panic unobserved.
func decodeAs(payload []byte) error {
	kind, dec, err := payloadKind(payload)
	if err != nil {
		return err
	}
	switch kind {
	case fkConfig:
		_, err = decodeConfig(dec)
	case fkRound:
		_, err = decodeRound(dec)
	case fkSweep:
		_, err = decodeSweep(dec)
	case fkHello, fkFinish:
		err = dec.done()
	case fkOutputs:
		_, err = decodeOutputs(dec)
	case fkError:
		_, err = decodeError(dec)
	default:
		err = dec.done()
	}
	return err
}

// TestRoundTripAllWireKinds sends one message of every proto kind at
// every boundary bit size and word value through the round codec.
func TestRoundTripAllWireKinds(t *testing.T) {
	var msgs []congest.Message
	from := 0
	for _, k := range protoKinds() {
		for _, bits := range boundaryBits() {
			for _, word := range boundaryWords() {
				msgs = append(msgs, congest.Message{
					From: from,
					Wire: congest.Wire{Kind: k, Bits: bits, A: word, B: ^word},
				})
				from++
			}
		}
	}
	in := congest.RoundInput{
		Round:     3,
		Fates:     []congest.VertexFate{{V: 0, Fate: 1}, {V: int32(len(msgs) - 1), Fate: 2}},
		InboxLens: []int32{int32(len(msgs))},
		Inbox:     msgs,
	}
	var e encoder
	encodeRound(&e, in)
	kind, dec, err := payloadKind(e.buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != fkRound {
		t.Fatalf("payload kind = %s, want round", kind)
	}
	got, err := decodeRound(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round input did not survive the round trip:\n got %+v\nwant %+v", got, in)
	}
}

// TestSweepRoundTrip exercises the worker→coordinator payload with
// boundary packets, negative event fields, and an error string.
func TestSweepRoundTrip(t *testing.T) {
	out := congest.RoundOutput{
		Packets: []congest.Packet{
			{To: 0, From: 0, Wire: congest.Wire{Kind: proto.WirePriority, Bits: 1, A: 1}},
			{To: math.MaxInt32, From: math.MaxInt32, Wire: congest.Wire{
				Kind: proto.WireForestEdge, Bits: uint16(congest.MaxWireBits),
				A: math.MaxUint64, B: math.MaxUint64,
			}},
		},
		Events: []trace.Event{
			{Type: trace.EvHalt, Round: 7, V: 12},
			{Type: trace.EvNodeState, Round: math.MaxInt32, V: -1, W: math.MinInt32,
				X: math.MinInt64, Y: math.MaxInt64, Z: -1},
		},
		Halted: []int32{0, 5, math.MaxInt32},
		Draws:  math.MaxUint64,
		Err:    "congest: node 5 sent to non-neighbor 9",
	}
	var e encoder
	encodeSweep(&e, out)
	_, dec, err := payloadKind(e.buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSweep(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, out) {
		t.Fatalf("sweep output did not survive the round trip:\n got %+v\nwant %+v", got, out)
	}
}

// TestConfigRoundTrip exercises the handshake payload with boundary
// seeds, program args, and gap-heavy adjacency deltas.
func TestConfigRoundTrip(t *testing.T) {
	m := configMsg{
		cfg: congest.ShardConfig{
			Index: 2, NumShards: 4, Lo: 10, Hi: 14, N: 1 << 20,
			Seed: math.MaxUint64, MessageBitLimit: 128, Traced: true,
			Layout: "degsort",
		},
		prog: Program{Algorithm: "colevishkin", Args: []uint64{0, 1, math.MaxUint64, 42}},
		adj:  [][]int{{0, 1, 1<<20 - 1}, {}, {13}, {3, 7, 11, 12}},
	}
	var e encoder
	encodeConfig(&e, m)
	_, dec, err := payloadKind(e.buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeConfig(dec)
	if err != nil {
		t.Fatal(err)
	}
	// The decoder canonicalizes an empty adjacency row to an empty slice.
	if len(m.adj[1]) == 0 && len(got.adj[1]) == 0 {
		got.adj[1] = m.adj[1]
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("config did not survive the round trip:\n got %+v\nwant %+v", got, m)
	}
}

// TestSmallFramesRoundTrip covers hello, outputs, error and finish.
func TestSmallFramesRoundTrip(t *testing.T) {
	var e encoder
	encodeHello(&e)
	_, dec, _ := payloadKind(e.buf)
	if err := dec.done(); err != nil {
		t.Fatalf("hello frame should carry no body: %v", err)
	}
	vals := []uint64{0, 1, math.MaxUint64}
	encodeOutputs(&e, vals)
	_, dec, _ = payloadKind(e.buf)
	if got, err := decodeOutputs(dec); err != nil || !reflect.DeepEqual(got, vals) {
		t.Fatalf("outputs round trip: %v, %v", got, err)
	}
	encodeError(&e, "boom")
	_, dec, _ = payloadKind(e.buf)
	if msg, err := decodeError(dec); err != nil || msg != "boom" {
		t.Fatalf("error round trip: %q, %v", msg, err)
	}
	encodeFinish(&e)
	_, dec, _ = payloadKind(e.buf)
	if err := dec.done(); err != nil {
		t.Fatalf("finish frame should carry no body: %v", err)
	}
}

// samplePayloads builds one representative encoded payload per frame kind.
func samplePayloads() map[string][]byte {
	var e encoder
	out := map[string][]byte{}
	encodeConfig(&e, configMsg{
		cfg:  congest.ShardConfig{Index: 1, NumShards: 2, Lo: 2, Hi: 4, N: 8, Seed: 99},
		prog: Program{Algorithm: "metivier", Args: []uint64{7}},
		adj:  [][]int{{0, 3}, {1}},
	})
	out["config"] = append([]byte(nil), e.buf...)
	encodeHello(&e)
	out["hello"] = append([]byte(nil), e.buf...)
	encodeRound(&e, congest.RoundInput{
		Round:     2,
		Fates:     []congest.VertexFate{{V: 3, Fate: 1}},
		InboxLens: []int32{1, 2},
		Inbox: []congest.Message{
			{From: 0, Wire: congest.Wire{Kind: proto.WireFlag, Bits: 1, A: 1}},
			{From: 5, Wire: congest.Wire{Kind: proto.WireDegree, Bits: 32, A: 9}},
			{From: 6, Wire: congest.Wire{Kind: proto.WireColor, Bits: 8, A: 3, B: 1}},
		},
	})
	out["round"] = append([]byte(nil), e.buf...)
	encodeSweep(&e, congest.RoundOutput{
		Packets: []congest.Packet{{To: 1, From: 2, Wire: congest.Wire{Kind: proto.WireDesire, Bits: 2, A: 2}}},
		Events:  []trace.Event{{Type: trace.EvHalt, Round: 2, V: 3}},
		Halted:  []int32{3},
		Draws:   17,
		Err:     "",
	})
	out["sweep"] = append([]byte(nil), e.buf...)
	encodeOutputs(&e, []uint64{1, 2, 3})
	out["outputs"] = append([]byte(nil), e.buf...)
	encodeError(&e, "worker failed")
	out["error"] = append([]byte(nil), e.buf...)
	encodeFinish(&e)
	out["finish"] = append([]byte(nil), e.buf...)
	return out
}

// TestTruncatedFramesRejected decodes every strict prefix of every frame
// kind: each must fail with a contextual error (and never panic) — a
// partial frame cannot be mistaken for a complete one.
func TestTruncatedFramesRejected(t *testing.T) {
	for name, payload := range samplePayloads() {
		if err := decodeAs(payload); err != nil {
			t.Fatalf("%s: intact payload rejected: %v", name, err)
		}
		for cut := 0; cut < len(payload); cut++ {
			err := decodeAs(payload[:cut])
			if err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded cleanly", name, cut, len(payload))
			}
			if !strings.Contains(err.Error(), "distrib:") {
				t.Fatalf("%s: prefix error lacks context: %v", name, err)
			}
		}
	}
}

// TestTrailingBytesRejected appends garbage to every frame kind: done()
// must flag the surplus.
func TestTrailingBytesRejected(t *testing.T) {
	for name, payload := range samplePayloads() {
		grown := append(append([]byte(nil), payload...), 0x5a)
		if err := decodeAs(grown); err == nil {
			t.Fatalf("%s: payload with trailing bytes decoded cleanly", name)
		}
	}
}

// TestCorruptCountsRejected hand-crafts payloads whose collection counts
// vastly exceed the bytes present: the plausibility bound must reject
// them before any allocation happens.
func TestCorruptCountsRejected(t *testing.T) {
	var e encoder
	e.reset(fkRound)
	e.u64(0)       // round
	e.u64(1 << 40) // absurd fate count
	_, dec, _ := payloadKind(e.buf)
	if _, err := decodeRound(dec); err == nil || !strings.Contains(err.Error(), "implausible count") {
		t.Fatalf("absurd fate count not rejected: %v", err)
	}
	e.reset(fkOutputs)
	e.u64(math.MaxUint64 / 2)
	_, dec, _ = payloadKind(e.buf)
	if _, err := decodeOutputs(dec); err == nil || !strings.Contains(err.Error(), "implausible count") {
		t.Fatalf("absurd outputs count not rejected: %v", err)
	}
	e.reset(fkError)
	e.u64(1 << 35)
	_, dec, _ = payloadKind(e.buf)
	if _, err := decodeError(dec); err == nil {
		t.Fatal("absurd string length not rejected")
	}
}

// TestInvalidFateRejected corrupts a round's fate byte: only down (1) and
// gone (2) travel the wire, and anything else must fail the decode rather
// than reach a worker that would treat it as down.
func TestInvalidFateRejected(t *testing.T) {
	for _, fate := range []byte{0, 3, 7, 255} {
		var e encoder
		e.reset(fkRound)
		e.u64(1) // round
		e.u64(1) // fate count
		e.u64(0) // fate vertex
		e.u8(fate)
		e.u64(0) // inbox lengths
		e.u64(0) // inbox
		_, dec, _ := payloadKind(e.buf)
		_, err := decodeRound(dec)
		if err == nil || !strings.Contains(err.Error(), "round.fate") {
			t.Fatalf("fate byte %d not rejected: %v", fate, err)
		}
	}
}

// TestNonAscendingAdjacencyRejected corrupts a config's delta-coded
// adjacency with a zero delta (a duplicate neighbor).
func TestNonAscendingAdjacencyRejected(t *testing.T) {
	var e encoder
	e.reset(fkConfig)
	for _, x := range []uint64{0, 1, 0, 2, 8} { // index, shards, lo, hi, n
		e.u64(x)
	}
	e.fix64(7) // seed
	e.u64(0)   // bit limit
	e.u8(0)    // traced
	e.str("")  // layout
	e.str("metivier")
	e.u64(0) // args
	e.u64(0) // ext: identity
	e.u64(3) // degree of vertex 0
	e.u64(4)
	e.u64(0) // zero delta: duplicate neighbor
	e.u64(1)
	// vertex 1 row omitted: the zero delta must fail first.
	_, dec, _ := payloadKind(e.buf)
	if _, err := decodeConfig(dec); err == nil || !strings.Contains(err.Error(), "non-ascending adjacency") {
		t.Fatalf("duplicate adjacency not rejected: %v", err)
	}
}

// TestConfigExtRoundTrip exercises the handshake's external-ID map: a
// full permutation survives the trip, and identity ships as zero entries.
func TestConfigExtRoundTrip(t *testing.T) {
	m := configMsg{
		cfg: congest.ShardConfig{
			Index: 0, NumShards: 2, Lo: 0, Hi: 3, N: 6, Seed: 7, Layout: "degsort",
		},
		prog: Program{Algorithm: "metivier"},
		ext:  []int{5, 3, 0, 1, 4, 2},
		adj:  [][]int{{1, 2}, {0}, {0, 5}},
	}
	var e encoder
	encodeConfig(&e, m)
	_, dec, err := payloadKind(e.buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeConfig(dec)
	if err != nil {
		t.Fatal(err)
	}
	// The decoder canonicalizes empty args to an empty slice.
	if len(got.prog.Args) == 0 && len(m.prog.Args) == 0 {
		got.prog.Args = m.prog.Args
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("ext config did not survive the round trip:\n got %+v\nwant %+v", got, m)
	}

	m.ext = nil
	m.cfg.Layout = ""
	encodeConfig(&e, m)
	_, dec, _ = payloadKind(e.buf)
	got, err = decodeConfig(dec)
	if err != nil {
		t.Fatal(err)
	}
	if got.ext != nil {
		t.Fatalf("identity config decoded a non-nil ext map: %v", got.ext)
	}
}

// TestConfigExtRejected feeds the decoder corrupt external-ID maps: a
// count that is neither 0 nor N, an out-of-range entry, and a duplicate.
// Each must fail with a contextual error, never alias two vertices.
func TestConfigExtRejected(t *testing.T) {
	encode := func(ext []uint64, extCount uint64) []byte {
		var e encoder
		e.reset(fkConfig)
		for _, x := range []uint64{0, 1, 0, 4, 4} { // index, shards, lo, hi, n
			e.u64(x)
		}
		e.fix64(7) // seed
		e.u64(0)   // bit limit
		e.u8(0)    // traced
		e.str("")  // layout
		e.str("metivier")
		e.u64(0) // args
		e.u64(extCount)
		for _, x := range ext {
			e.u64(x)
		}
		// Adjacency rows omitted: the ext map must fail first.
		return append([]byte(nil), e.buf...)
	}
	cases := []struct {
		name string
		ext  []uint64
		n    uint64
		want string
	}{
		{"short count", []uint64{0, 1, 2}, 3, "3 entries for n=4"},
		{"out of range", []uint64{0, 1, 2, 4}, 4, "not a permutation"},
		{"duplicate", []uint64{0, 1, 1, 2}, 4, "not a permutation"},
	}
	for _, tc := range cases {
		_, dec, err := payloadKind(encode(tc.ext, tc.n))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := decodeConfig(dec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: corrupt ext map not rejected: %v", tc.name, err)
		}
	}
}

// TestDecodeScratchReuse drives one decodeScratch through a sequence of
// frames with very different sizes — the reused-buffer path every worker
// and coordinator connection runs — and checks each decode matches a
// fresh-allocation decode, including shrinking after a large frame.
func TestDecodeScratchReuse(t *testing.T) {
	r := rng.New(0xc0de)
	mkRound := func(nMsgs, nFates, nLens int) congest.RoundInput {
		in := congest.RoundInput{Round: int(r.Uint64() % 100)}
		for i := 0; i < nFates; i++ {
			in.Fates = append(in.Fates, congest.VertexFate{V: int32(i), Fate: int32(1 + r.Uint64()%2)})
		}
		for i := 0; i < nLens; i++ {
			in.InboxLens = append(in.InboxLens, 0)
		}
		for i := 0; i < nMsgs; i++ {
			if nLens > 0 {
				in.InboxLens[int(r.Uint64()%uint64(nLens))]++
			}
			in.Inbox = append(in.Inbox, congest.Message{
				From: int(r.Uint64() % 1000),
				Wire: congest.Wire{Kind: proto.WireFlag, Bits: 64, A: r.Uint64()},
			})
		}
		// Inbox is delivered grouped by destination; only the lens sum matters.
		if nLens == 0 {
			in.Inbox = nil
		}
		return in
	}
	var e encoder
	var sc decodeScratch
	sizes := []struct{ msgs, fates, lens int }{
		{0, 0, 0}, {1000, 64, 32}, {3, 1, 2}, {0, 0, 8}, {500, 0, 16}, {1, 1, 1},
	}
	for i, sz := range sizes {
		in := mkRound(sz.msgs, sz.fates, sz.lens)
		encodeRound(&e, in)
		_, dec, err := payloadKind(e.buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := sc.round(dec)
		if err != nil {
			t.Fatalf("frame %d: scratch decode: %v", i, err)
		}
		_, dec, _ = payloadKind(e.buf)
		fresh, err := decodeRound(dec)
		if err != nil {
			t.Fatalf("frame %d: fresh decode: %v", i, err)
		}
		// The scratch path hands back empty (not nil) slices for empty
		// sections; only contents matter on the wire.
		normRound(&got)
		normRound(&fresh)
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("frame %d: scratch decode diverged from fresh decode:\n got %+v\nwant %+v", i, got, fresh)
		}
	}
	// The sweep and outputs paths share the same scratch.
	outSizes := []int{0, 2000, 5}
	for i, n := range outSizes {
		out := congest.RoundOutput{Draws: uint64(n)}
		for j := 0; j < n; j++ {
			out.Packets = append(out.Packets, congest.Packet{
				To: int32(j), From: int32(j), Wire: congest.Wire{Kind: proto.WireFlag, Bits: 1, A: 1},
			})
			out.Halted = append(out.Halted, int32(j))
		}
		encodeSweep(&e, out)
		_, dec, _ := payloadKind(e.buf)
		got, err := sc.sweep(dec)
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		_, dec, _ = payloadKind(e.buf)
		fresh, _ := decodeSweep(dec)
		normSweep(&got)
		normSweep(&fresh)
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("sweep %d: scratch decode diverged from fresh decode", i)
		}
		vals := make([]uint64, n)
		for j := range vals {
			vals[j] = r.Uint64()
		}
		encodeOutputs(&e, vals)
		_, dec, _ = payloadKind(e.buf)
		gotVals, err := sc.outputs(dec)
		if err != nil {
			t.Fatalf("outputs %d: %v", i, err)
		}
		if len(gotVals) != len(vals) || (len(vals) > 0 && !reflect.DeepEqual(gotVals, vals)) {
			t.Fatalf("outputs %d: scratch decode diverged: got %v want %v", i, gotVals, vals)
		}
	}
}

// normRound and normSweep map empty slices to nil so scratch-backed and
// freshly allocated decodes compare equal.
func normRound(in *congest.RoundInput) {
	if len(in.Fates) == 0 {
		in.Fates = nil
	}
	if len(in.InboxLens) == 0 {
		in.InboxLens = nil
	}
	if len(in.Inbox) == 0 {
		in.Inbox = nil
	}
}

func normSweep(out *congest.RoundOutput) {
	if len(out.Packets) == 0 {
		out.Packets = nil
	}
	if len(out.Events) == 0 {
		out.Events = nil
	}
	if len(out.Halted) == 0 {
		out.Halted = nil
	}
}

// TestFuzzDecodersNeverPanic throws deterministic pseudo-random garbage
// (and mutated valid frames) at every decoder: errors are expected,
// panics and runaway allocations are not.
func TestFuzzDecodersNeverPanic(t *testing.T) {
	r := rng.New(0xf022)
	buf := make([]byte, 256)
	for trial := 0; trial < 4096; trial++ {
		n := int(r.Uint64() % uint64(len(buf)))
		payload := buf[:n]
		for i := range payload {
			payload[i] = byte(r.Uint64())
		}
		if n > 0 {
			// Half the trials get a valid kind byte so the real decoders run.
			if r.Uint64()&1 == 0 {
				payload[0] = byte(1 + r.Uint64()%7)
			}
		}
		_ = decodeAs(payload)
	}
	// Mutate valid frames: flip one byte at a time and decode. Some
	// mutations stay well-formed; the property under test is no-panic.
	for _, payload := range samplePayloads() {
		for i := range payload {
			mut := append([]byte(nil), payload...)
			mut[i] ^= 0xff
			_ = decodeAs(mut)
		}
	}
}

// TestFrameConnRoundTrip pushes frames through a real socket pair and
// checks framing, byte accounting, and oversize rejection.
func TestFrameConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fa, fb := newFrameConn(a), newFrameConn(b)

	var e encoder
	encodeHello(&e)
	sent := append([]byte(nil), e.buf...)
	errc := make(chan error, 1)
	go func() { errc <- fa.writeFrame(sent) }()
	payload, err := fb.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-errc; werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(payload, sent) {
		t.Fatalf("frame payload changed in flight: %x != %x", payload, sent)
	}
	if fa.bytesOut != int64(4+len(sent)) || fb.bytesIn != int64(4+len(sent)) {
		t.Fatalf("byte accounting off: out=%d in=%d want %d", fa.bytesOut, fb.bytesIn, 4+len(sent))
	}

	if err := fa.writeFrame(make([]byte, maxFrameLen+1)); err == nil {
		t.Fatal("oversized frame write not rejected")
	}

	// A corrupt length prefix past the cap must be rejected by the reader.
	go func() {
		hdr := []byte{0xff, 0xff, 0xff, 0xff}
		a.Write(hdr)
	}()
	if _, err := fb.readFrame(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("corrupt length prefix not rejected: %v", err)
	}
}
