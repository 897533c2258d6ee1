package congest

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/trace"
)

// WorkerCount resolves Options.Workers for an n-vertex run: Workers when
// positive, else GOMAXPROCS, then clamped to at most n so no shard is
// empty at the start. For n = 0 it returns 1 — the value is then only a
// nominal shard count, since a zero-vertex run sweeps nothing (runPool
// short-circuits before starting any workers) and every driver handles it
// identically. The result is always at least 1.
func (o Options) WorkerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// cmdMerge is the out-of-band command the pool coordinator sends on a
// worker's start channel to run that worker's destination-bucket merge
// instead of a sweep. Rounds are >= 0, so the value cannot collide.
const cmdMerge = -1

// runPool executes the program on the sharded worker pool: workerCount
// long-lived workers each own one contiguous vertex shard and sweep its
// live nodes every round, with a channel barrier per round (two channel
// operations per worker per round). Delivery happens on the coordinator
// between rounds — except that on a reliable network the
// destination-bucketed merge (deliverBuckets) ships one merge task per
// shard back to these same workers when volume is high. Between rounds
// runLoop may also re-cut the shard ranges by live weight (rebalance.go);
// workers always sweep st.shards[s], whose range the rebalancer updates in
// place.
func (r *Runner) runPool() (Result, error) {
	n := r.g.N()
	workers := r.opts.WorkerCount(n)
	st := r.newExecState(workers)
	if n == 0 {
		return r.runLoop(st, func(int) {}, nil)
	}
	timed := r.opts.timingWanted()

	starts := make([]chan int, workers)
	done := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for s := 0; s < workers; s++ {
		starts[s] = make(chan int, 1)
		//lint:advisory shard workers are deterministic by construction: shard-ordered merge makes scheduling invisible (see package doc)
		go func(sh *shard, start chan int) {
			defer wg.Done()
			for cmd := range start {
				if cmd == cmdMerge {
					st.mergeBucket(sh.idx)
					done <- struct{}{}
					continue
				}
				if timed {
					t0 := time.Now() //lint:advisory shard-busy timings are advisory-only events, excluded from fingerprints
					r.sweepShard(st, sh, cmd)
					sh.busy = int64(time.Since(t0)) //lint:advisory shard-busy timings are advisory-only events, excluded from fingerprints
				} else {
					r.sweepShard(st, sh, cmd)
				}
				done <- struct{}{}
			}
		}(st.shards[s], starts[s])
	}
	defer func() {
		for _, start := range starts {
			close(start)
		}
		wg.Wait()
	}()

	// Parallel merge hook for deliverBuckets: one merge task per shard,
	// dispatched to every worker (an empty-frontier shard still owns its
	// destination inbox region) and awaited before delivery continues.
	// deliver runs strictly between sweep barriers, so the done channel is
	// empty when this fires.
	if st.buckets > 1 {
		st.parMerge = func() {
			for _, start := range starts {
				start <- cmdMerge
			}
			for range starts {
				<-done
			}
		}
	}

	// The barrier: every worker with live nodes sweeps, the coordinator
	// waits for exactly those. Shards whose frontier has drained get no
	// dispatch at all — their sweep would scan empty words, so skipping
	// the channel round-trip is observationally identical and removes the
	// per-empty-shard coordination cost of the tail rounds, where
	// shattering has halted most of the graph. A skipped shard's worker
	// is idle for the round, so the coordinator may safely clear its
	// timing residue. runLoop re-cuts skewed shard layouts by live weight
	// before this runs, while every worker is parked.
	sweep := func(round int) {
		dispatched := 0
		for s, start := range starts {
			if st.shards[s].liveCount == 0 {
				st.shards[s].busy = 0
				continue
			}
			start <- round
			dispatched++
		}
		for i := 0; i < dispatched; i++ {
			<-done
		}
	}

	if !timed {
		return r.runLoop(st, sweep, nil)
	}

	// Timing plumbing: wrap deliver timing around the coordinator's merge
	// and publish one shard-busy event per shard plus the merge duration
	// on the event bus, ahead of the round-end record. DriverStats
	// aggregates exactly these events.
	var mergeStart time.Time
	timedSweep := func(round int) {
		sweep(round)
		mergeStart = time.Now() //lint:advisory merge timings are advisory-only events, excluded from fingerprints
	}
	afterRound := func(round int) {
		merge := time.Since(mergeStart) //lint:advisory merge timings are advisory-only events, excluded from fingerprints
		for s, sh := range st.shards {
			st.bus.Emit(trace.Event{
				Type:  trace.EvShardBusy,
				Round: int32(round),
				V:     int32(s),
				X:     sh.busy,
				Y:     int64(sh.liveCount),
			})
		}
		st.bus.Emit(trace.Event{Type: trace.EvMerge, Round: int32(round), X: int64(merge)})
	}
	return r.runLoop(st, timedSweep, afterRound)
}

// DriverStats aggregates the pool driver's timing events across a run (or
// several runs) into the driver-efficiency summary cmd/bench -parallel
// reports. It is a trace.Sink: attach it via Options.Events with
// EventTiming set. It folds trace.EvShardBusy and trace.EvMerge events and
// closes a round on trace.EvRoundEnd only when that round produced timing
// events, so drivers that emit none (the sequential driver) leave it
// empty. Not safe for concurrent use; the engine emits from the
// coordinator only.
type DriverStats struct {
	// Rounds is the number of observed rounds (Init included).
	Rounds int
	// Workers is the widest shard count observed.
	Workers int
	// Busy is total worker time spent sweeping nodes, summed over shards.
	Busy time.Duration
	// Critical is the per-round maximum shard sweep time, summed over
	// rounds — the parallel critical path of the sweeps.
	Critical time.Duration
	// DispatchedCritical is the per-round critical path weighted by the
	// number of shards actually dispatched that round: Σ over rounds of
	// dispatched × max busy. In tail rounds the empty-shard skip
	// dispatches only the shards with live or just-halted nodes, so this —
	// not Workers × Critical — is the capacity the sweeps could have used.
	DispatchedCritical time.Duration
	// Merge is total coordinator time spent merging outboxes into
	// inboxes (delivery, fault draws, accounting).
	Merge time.Duration
	// LiveMax and LiveMin sum each round's largest and smallest per-shard
	// live count; their ratio exposes shard imbalance as nodes halt.
	LiveMax, LiveMin int64

	// The open round: whether it produced timing events, and its shard
	// count, critical path, dispatched shards and live-count extremes.
	timed              bool
	shards, dispatched int
	max                time.Duration
	liveLo, liveHi     int
}

// Emit folds one event into the aggregate. A shard counts as dispatched
// for the round when it reported sweep time or still holds live nodes —
// the frontier never regrows, so a shard with neither was skipped by the
// coordinator.
func (d *DriverStats) Emit(e trace.Event) {
	switch e.Type {
	case trace.EvShardBusy:
		busy, live := time.Duration(e.X), int(e.Y)
		d.Busy += busy
		if d.shards == 0 || live < d.liveLo {
			d.liveLo = live
		}
		if d.shards == 0 || live > d.liveHi {
			d.liveHi = live
		}
		if busy > d.max {
			d.max = busy
		}
		if busy > 0 || live > 0 {
			d.dispatched++
		}
		d.shards++
		d.timed = true
	case trace.EvMerge:
		d.Merge += time.Duration(e.X)
		d.timed = true
	case trace.EvRoundEnd:
		if !d.timed {
			return
		}
		d.Rounds++
		if d.shards > d.Workers {
			d.Workers = d.shards
		}
		d.Critical += d.max
		d.DispatchedCritical += time.Duration(d.dispatched) * d.max
		if d.shards > 0 {
			d.LiveMax += int64(d.liveHi)
			d.LiveMin += int64(d.liveLo)
		}
		d.timed, d.shards, d.dispatched, d.max = false, 0, 0, 0
	}
}

// Efficiency returns sweep-parallelism efficiency in (0, 1]: total busy
// time divided by the dispatched-weighted critical path. 1 means the
// dispatched shards were perfectly balanced every round. Weighting by
// dispatched shards (not the widest-ever worker count) keeps tail rounds
// honest: when the empty-shard skip dispatches one straggler shard, that
// round's denominator is one shard's time, not the full pool's — a
// single-shard round is "efficient" by definition, and imbalance across
// the pool shows up in LiveMax/LiveMin instead. It returns NaN-free 0
// when nothing was observed.
func (d *DriverStats) Efficiency() float64 {
	if d.Workers == 0 || d.DispatchedCritical == 0 {
		return 0
	}
	return float64(d.Busy) / float64(d.DispatchedCritical)
}

// String renders the aggregate for cmd/bench.
func (d *DriverStats) String() string {
	if d.Rounds == 0 {
		return "pool driver: no rounds observed"
	}
	return fmt.Sprintf(
		"pool driver: %d rounds, %d workers, busy %v (critical path %v, efficiency %.2f), merge %v",
		d.Rounds, d.Workers, d.Busy.Round(time.Microsecond),
		d.Critical.Round(time.Microsecond), d.Efficiency(),
		d.Merge.Round(time.Microsecond))
}
