package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/trace"
)

// span is one timed call the benchmark made into a layer's public API.
// The layer is the name's prefix before the first dot.
type span struct {
	Name   string `json:"name"`
	Phase  string `json:"phase"`  // "setup" or "traced"
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spans keeps every span of one benchmark process in memory; they are
// written out once, when the traced run has ended. Spans nest by call
// order on the one goroutine that drives the workload.
type spans struct {
	t0    time.Time
	phase string
	list  []span
	open  []int
}

func newSpans() *spans { return &spans{t0: time.Now(), phase: "setup"} }

// begin opens a span and returns the function that closes it. A nil
// *spans records nothing, so untraced runs pay one nil check per call.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	parent := -1
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1]
	}
	i := len(s.list)
	s.list = append(s.list, span{Name: name, Phase: s.phase, Parent: parent, Start: int64(time.Since(s.t0))})
	s.open = append(s.open, i)
	return func() {
		s.list[i].End = int64(time.Since(s.t0))
		s.open = s.open[:len(s.open)-1]
	}
}

// total sums the durations of the spans of one phase with this name.
func (s *spans) total(phase, name string) time.Duration {
	var d time.Duration
	for _, sp := range s.list {
		if sp.Phase == phase && sp.Name == name {
			d += sp.dur()
		}
	}
	return d
}

// durations lists the durations of the spans of one phase with this name,
// in call order.
func (s *spans) durations(phase, name string) []time.Duration {
	var out []time.Duration
	for _, sp := range s.list {
		if sp.Phase == phase && sp.Name == name {
			out = append(out, sp.dur())
		}
	}
	return out
}

// selfTime returns each layer's self time over one phase: a span's
// duration minus the part of it that its child spans cover.
func (s *spans) selfTime(phase string) map[string]time.Duration {
	self := make([]time.Duration, len(s.list))
	for i, sp := range s.list {
		if sp.Phase != phase {
			continue
		}
		self[i] += sp.dur()
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, sp := range s.list {
		if sp.Phase == phase {
			out[layerOf(sp.Name)] += self[i]
		}
	}
	return out
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// write stores the spans as one JSON document under dir.
func (s *spans) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}

// eventSink timestamps the engine's trace events as they arrive and folds
// them into per-layer counters; it keeps no event, so a traced run of
// millions of messages stays small.
type eventSink struct {
	t0 time.Time

	roundStart time.Duration
	roundWalls []time.Duration

	// Per-round split of the round's wall time, from the advisory timing
	// events that precede each EvRoundEnd.
	maxBusy, sumBusy, merge, maxRTT int64
	shards                          int
	timed                           bool
	sweep, busy, mergeTotal, coord  time.Duration
	meanBusy                        float64 // sum over timed rounds of mean shard busy, ns

	rebalances int64
	frameBytes int64
	frameRTT   []int64
	respawns   int64
	nodeDraws  int64
	faultDraws int64
}

func newEventSink() *eventSink { return &eventSink{t0: time.Now()} }

// Emit implements trace.Sink.
func (k *eventSink) Emit(e trace.Event) {
	switch e.Type {
	case trace.EvRoundStart:
		k.roundStart = time.Since(k.t0)
		k.maxBusy, k.sumBusy, k.merge, k.maxRTT, k.shards, k.timed = 0, 0, 0, 0, 0, false
	case trace.EvShardBusy:
		k.maxBusy = max(k.maxBusy, e.X)
		k.sumBusy += e.X
		k.shards++
		k.timed = true
	case trace.EvMerge:
		k.merge = e.X
		k.timed = true
	case trace.EvFrame:
		k.frameBytes += e.X + e.Y
		k.frameRTT = append(k.frameRTT, e.Z)
		k.maxRTT = max(k.maxRTT, e.Z)
		k.timed = true
	case trace.EvRebalance:
		k.rebalances++
	case trace.EvRespawn:
		k.respawns++
	case trace.EvRNG:
		k.nodeDraws += e.X
		k.faultDraws += e.Y
	case trace.EvRoundEnd:
		wall := time.Since(k.t0) - k.roundStart
		k.roundWalls = append(k.roundWalls, wall)
		if !k.timed {
			return
		}
		// The slowest shard (pool) or the slowest frame round trip
		// (distributed) blocks the round; the rest is coordinator time.
		slowest := max(k.maxBusy, k.maxRTT)
		k.sweep += time.Duration(slowest)
		k.busy += time.Duration(k.sumBusy)
		k.mergeTotal += time.Duration(k.merge)
		k.coord += wall - time.Duration(slowest+k.merge)
		if k.shards > 0 {
			k.meanBusy += float64(k.sumBusy) / float64(k.shards)
		}
	}
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU, totalCPU               float64
	pauseNS                       uint64
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtMetricNames))
	for i, name := range rtMetricNames {
		ms[i].Name = name
	}
	metrics.Read(ms)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return rtSample{
		allocBytes: ms[0].Value.Uint64(),
		mallocs:    ms[1].Value.Uint64(),
		gcCycles:   ms[2].Value.Uint64(),
		gcCPU:      ms[3].Value.Float64(),
		totalCPU:   ms[4].Value.Float64(),
		pauseNS:    mem.PauseTotalNs,
	}
}

// sub returns the counters' growth since an earlier sample.
func (s rtSample) sub(o rtSample) rtSample {
	return rtSample{
		allocBytes: s.allocBytes - o.allocBytes,
		mallocs:    s.mallocs - o.mallocs,
		gcCycles:   s.gcCycles - o.gcCycles,
		gcCPU:      s.gcCPU - o.gcCPU,
		totalCPU:   s.totalCPU - o.totalCPU,
		pauseNS:    s.pauseNS - o.pauseNS,
	}
}

// peakRSSMB is the benchmark process's maximum resident set size so far;
// fleet workers are separate processes and not included.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// quantile returns the q-quantile of xs by nearest rank (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
