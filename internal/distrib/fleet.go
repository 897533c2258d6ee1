package distrib

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/layout"
)

// spawnTimeout bounds how long ExecFleet waits for a just-spawned worker
// to dial back, dialTimeout how long DialFleet retries a misnode address
// before giving up, and rehandshakeTimeout how long a fleet waits for a
// kept-alive worker to accept a new run's config before falling back to
// a respawn (a wedged worker must not hang the next run).
const (
	spawnTimeout       = 30 * time.Second
	dialTimeout        = 10 * time.Second
	rehandshakeTimeout = 5 * time.Second
)

// layoutView caches the fleet side of a run's vertex ordering: the
// internal→external ID map that the config frames ship. Fleets resolve
// it lazily on the first Shard call and keep it for the fleet's life, so
// reconfiguring a reused fleet for another run of the same layout costs
// nothing.
type layoutView struct {
	resolved bool
	name     layout.Ordering
	ext      []int
}

// view resolves (and caches) the ordering for g.
func (lv *layoutView) view(g *graph.Graph, name string) ([]int, error) {
	o, err := layout.Parse(name)
	if err != nil {
		return nil, err
	}
	if lv.resolved && lv.name == o {
		return lv.ext, nil
	}
	_, ext, err := layout.Compute(g, o)
	if err != nil {
		return nil, err
	}
	lv.resolved, lv.name, lv.ext = true, o, ext
	return ext, nil
}

// handshake runs the coordinator side of connection setup: ship the
// shard's config (program spec + the owned range's external rows, g's
// own, + ID map) and read the worker's hello.
func handshake(fc *frameConn, g *graph.Graph, ext []int, prog Program, cfg congest.ShardConfig) error {
	adj := make([][]int, cfg.Hi-cfg.Lo)
	for v := cfg.Lo; v < cfg.Hi; v++ {
		if ext != nil {
			adj[v-cfg.Lo] = g.Neighbors(ext[v])
		} else {
			adj[v-cfg.Lo] = g.Neighbors(v)
		}
	}
	var enc encoder
	encodeConfig(&enc, configMsg{cfg: cfg, prog: prog, adj: adj, ext: ext})
	if err := fc.writeFrame(enc.buf); err != nil {
		return err
	}
	payload, err := fc.readFrame()
	if err != nil {
		return err
	}
	kind, dec, err := payloadKind(payload)
	if err != nil {
		return err
	}
	switch kind {
	case fkHello:
		return dec.done()
	case fkError:
		msg, derr := decodeError(dec)
		if derr != nil {
			return derr
		}
		return fmt.Errorf("distrib: worker rejected config: %s", msg)
	default:
		return fmt.Errorf("distrib: expected hello frame, got %s", kind)
	}
}

// shardConn is the coordinator's framed connection to one worker. It
// implements congest.ShardConn and measures the advisory per-round
// transport volume and latency the EvFrame event reports.
type shardConn struct {
	fc      *frameConn
	enc     encoder
	dec     decodeScratch
	sentAt  time.Time
	lastOut int64
}

// Send ships one round input.
//
//lint:advisory the send timestamp feeds the advisory EvFrame latency measurement, never program logic
func (sc *shardConn) Send(in congest.RoundInput) error {
	sc.sentAt = time.Now()
	before := sc.fc.bytesOut
	encodeRound(&sc.enc, in)
	if err := sc.fc.writeFrame(sc.enc.buf); err != nil {
		return err
	}
	sc.lastOut = sc.fc.bytesOut - before
	return nil
}

// Recv collects the worker's round output and annotates it with the
// advisory transport measurements.
//
//lint:advisory round-trip latency is an advisory transport measurement, never program logic
func (sc *shardConn) Recv() (congest.RoundOutput, error) {
	before := sc.fc.bytesIn
	payload, err := sc.fc.readFrame()
	if err != nil {
		return congest.RoundOutput{}, err
	}
	kind, dec, err := payloadKind(payload)
	if err != nil {
		return congest.RoundOutput{}, err
	}
	var out congest.RoundOutput
	switch kind {
	case fkSweep:
		if out, err = sc.dec.sweep(dec); err != nil {
			return congest.RoundOutput{}, err
		}
	case fkError:
		msg, derr := decodeError(dec)
		if derr != nil {
			return congest.RoundOutput{}, derr
		}
		return congest.RoundOutput{}, fmt.Errorf("distrib: worker failed: %s", msg)
	default:
		return congest.RoundOutput{}, fmt.Errorf("distrib: expected sweep frame, got %s", kind)
	}
	out.BytesOut = sc.lastOut
	out.BytesIn = sc.fc.bytesIn - before
	out.LatencyNanos = time.Since(sc.sentAt).Nanoseconds()
	return out, nil
}

// Outputs ends the run and collects the worker's exported states.
func (sc *shardConn) Outputs() ([]uint64, error) {
	encodeFinish(&sc.enc)
	if err := sc.fc.writeFrame(sc.enc.buf); err != nil {
		return nil, err
	}
	payload, err := sc.fc.readFrame()
	if err != nil {
		return nil, err
	}
	kind, dec, err := payloadKind(payload)
	if err != nil {
		return nil, err
	}
	switch kind {
	case fkOutputs:
		return sc.dec.outputs(dec)
	case fkError:
		msg, derr := decodeError(dec)
		if derr != nil {
			return nil, derr
		}
		return nil, fmt.Errorf("distrib: worker failed: %s", msg)
	default:
		return nil, fmt.Errorf("distrib: expected outputs frame, got %s", kind)
	}
}

// Close tears the connection down.
func (sc *shardConn) Close() error { return sc.fc.close() }

// rehandshake re-runs the config handshake on a live worker connection
// (fleet reuse: one spawned fleet serving several runs back-to-back).
// The whole exchange runs under a socket deadline so a wedged or
// mid-run worker fails fast instead of hanging the next run; the caller
// falls back to a respawn on any error.
//
//lint:advisory the rehandshake deadline is a liveness timeout on worker reconfiguration, never program logic
func rehandshake(fc *frameConn, g *graph.Graph, ext []int, prog Program, cfg congest.ShardConfig) error {
	if err := fc.c.SetDeadline(time.Now().Add(rehandshakeTimeout)); err != nil {
		return err
	}
	err := handshake(fc, g, ext, prog, cfg)
	if derr := fc.c.SetDeadline(time.Time{}); err == nil {
		err = derr
	}
	return err
}

// ExecFleet spawns shard workers by re-executing the current binary with
// the MISNODE_SOCKET environment variable set (see MaybeWorker): each
// worker dials the fleet's unix socket, receives its config, and serves
// one run. The fleet tracks worker processes so tests can SIGKILL one
// mid-run and crash recovery can respawn it.
type ExecFleet struct {
	g      *graph.Graph
	prog   Program
	shards int
	dir    string
	socket string
	ln     *net.UnixListener
	cmds   []*exec.Cmd
	conns  []*shardConn
	lv     layoutView
}

// NewExecFleet prepares a self-exec worker fleet of the given shard
// count over a fresh unix socket. Close releases the socket, the workers
// and the temp directory.
func NewExecFleet(g *graph.Graph, prog Program, shards int) (*ExecFleet, error) {
	if shards < 1 {
		return nil, fmt.Errorf("distrib: fleet needs at least one shard, got %d", shards)
	}
	if _, err := Factory(prog, g.N()); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "misfleet-")
	if err != nil {
		return nil, fmt.Errorf("distrib: fleet temp dir: %w", err)
	}
	socket := filepath.Join(dir, "fleet.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("distrib: fleet listen: %w", err)
	}
	return &ExecFleet{
		g:      g,
		prog:   prog,
		shards: shards,
		dir:    dir,
		socket: socket,
		ln:     ln.(*net.UnixListener),
		cmds:   make([]*exec.Cmd, shards),
		conns:  make([]*shardConn, shards),
	}, nil
}

// NumShards returns the fleet's worker count.
func (f *ExecFleet) NumShards() int { return f.shards }

// Transport names the fleet's transport for topology reporting.
func (f *ExecFleet) Transport() string { return "unix" }

// Socket returns the fleet's unix socket path.
func (f *ExecFleet) Socket() string { return f.socket }

// Pid returns the worker process ID for a shard (0 before it starts),
// so tests can deliver signals to a live worker.
func (f *ExecFleet) Pid(shard int) int {
	if f.cmds[shard] == nil || f.cmds[shard].Process == nil {
		return 0
	}
	return f.cmds[shard].Process.Pid
}

// Shard provides the worker for cfg.Index. A worker kept alive by a
// previous run on this fleet is reused: the fleet re-runs the config
// handshake on its live connection (workers loop back to config-wait
// after exporting outputs), so consecutive runs skip the process spawn.
// Any rehandshake failure — the worker died, is wedged mid-run, or
// rejected the config — falls back to the spawn path, which is also how
// crash recovery respawns a shard mid-run.
//
//lint:advisory the accept deadline is a liveness timeout on worker startup, never program logic
func (f *ExecFleet) Shard(cfg congest.ShardConfig) (congest.ShardConn, error) {
	s := cfg.Index
	if s < 0 || s >= f.shards {
		return nil, fmt.Errorf("distrib: shard index %d outside fleet of %d", s, f.shards)
	}
	ext, err := f.lv.view(f.g, cfg.Layout)
	if err != nil {
		return nil, err
	}
	if f.cmds[s] != nil && f.conns[s] != nil {
		if err := rehandshake(f.conns[s].fc, f.g, ext, f.prog, cfg); err == nil {
			return f.conns[s], nil
		}
		_ = f.conns[s].Close()
		f.conns[s] = nil
	}
	f.reap(s)
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("distrib: resolve executable: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerSocketEnv+"="+f.socket)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distrib: spawn worker: %w", err)
	}
	if err := f.ln.SetDeadline(time.Now().Add(spawnTimeout)); err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	}
	conn, err := f.ln.Accept()
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("distrib: worker for shard %d never dialed back: %w", s, err)
	}
	fc := newFrameConn(conn)
	if err := handshake(fc, f.g, ext, f.prog, cfg); err != nil {
		_ = fc.close()
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	}
	f.cmds[s] = cmd
	f.conns[s] = &shardConn{fc: fc}
	return f.conns[s], nil
}

// reap kills and waits any previous worker for the shard (a respawn may
// replace a process that is wedged rather than dead).
func (f *ExecFleet) reap(s int) {
	if f.cmds[s] == nil {
		return
	}
	_ = f.cmds[s].Process.Kill()
	_ = f.cmds[s].Wait()
	f.cmds[s] = nil
}

// Close shuts the fleet down: connections, worker processes, socket and
// temp directory.
func (f *ExecFleet) Close() error {
	for _, c := range f.conns {
		if c != nil {
			_ = c.Close()
		}
	}
	for s := range f.cmds {
		f.reap(s)
	}
	err := f.ln.Close()
	os.RemoveAll(f.dir)
	return err
}

// DialFleet connects to pre-started cmd/misnode workers over TCP, one
// address per shard. Respawning through a DialFleet redials the same
// address: a misnode process accepts a fresh run connection after the
// previous one ends, and an externally supervised misnode that crashed
// is expected to come back on the same address.
type DialFleet struct {
	g     *graph.Graph
	prog  Program
	addrs []string
	conns []*shardConn
	lv    layoutView
}

// NewDialFleet prepares a TCP fleet over the given misnode addresses.
func NewDialFleet(g *graph.Graph, prog Program, addrs []string) (*DialFleet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("distrib: dial fleet needs at least one address")
	}
	if _, err := Factory(prog, g.N()); err != nil {
		return nil, err
	}
	return &DialFleet{g: g, prog: prog, addrs: addrs, conns: make([]*shardConn, len(addrs))}, nil
}

// NumShards returns the fleet's worker count.
func (f *DialFleet) NumShards() int { return len(f.addrs) }

// Transport names the fleet's transport for topology reporting.
func (f *DialFleet) Transport() string { return "tcp" }

// Addrs returns the configured misnode addresses.
func (f *DialFleet) Addrs() []string { return f.addrs }

// Shard dials the shard's misnode (with retries, so a respawn can wait
// out a supervisor restart) and runs the config handshake.
//
//lint:advisory the dial retry loop times out worker startup, never program logic
func (f *DialFleet) Shard(cfg congest.ShardConfig) (congest.ShardConn, error) {
	s := cfg.Index
	if s < 0 || s >= len(f.addrs) {
		return nil, fmt.Errorf("distrib: shard index %d outside fleet of %d", s, len(f.addrs))
	}
	ext, err := f.lv.view(f.g, cfg.Layout)
	if err != nil {
		return nil, err
	}
	// A connection kept alive by a previous run is reconfigured in place;
	// failure falls through to a fresh dial.
	if f.conns[s] != nil {
		if err := rehandshake(f.conns[s].fc, f.g, ext, f.prog, cfg); err == nil {
			return f.conns[s], nil
		}
		_ = f.conns[s].Close()
		f.conns[s] = nil
	}
	deadline := time.Now().Add(dialTimeout)
	var conn net.Conn
	for {
		conn, err = net.DialTimeout("tcp", f.addrs[s], time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("distrib: dial misnode %s: %w", f.addrs[s], err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fc := newFrameConn(conn)
	if err := handshake(fc, f.g, ext, f.prog, cfg); err != nil {
		_ = fc.close()
		return nil, err
	}
	f.conns[s] = &shardConn{fc: fc}
	return f.conns[s], nil
}

// Close closes every live connection.
func (f *DialFleet) Close() error {
	var first error
	for _, c := range f.conns {
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Run executes a program over g on a fresh self-exec fleet and returns
// the per-vertex exported states' run result — the distributed
// equivalent of the per-algorithm Run helpers. It wires the fleet into
// Options and closes it afterwards.
func Run(g *graph.Graph, prog Program, shards int, opts congest.Options) (congest.Result, *congest.Runner, error) {
	fleet, err := NewExecFleet(g, prog, shards)
	if err != nil {
		return congest.Result{}, nil, err
	}
	defer fleet.Close()
	factory, err := Factory(prog, g.N())
	if err != nil {
		return congest.Result{}, nil, err
	}
	opts.Driver = congest.DriverDistributed
	opts.Fleet = fleet
	r := congest.NewRunner(g, factory, opts)
	res, err := r.Run()
	return res, r, err
}
