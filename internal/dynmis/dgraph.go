package dynmis

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// DGraph is a mutable simple undirected graph under streaming updates: the
// substrate the dynamic-MIS engine maintains its set over, and the state
// the update-stream generator (internal/gen) mirrors while emitting ops.
//
// Vertex IDs are append-only: InsertNode always allocates the next unused
// ID and RemoveNode retires an ID forever (no reuse). That keeps every ID
// in a stream meaningful for its whole lifetime — a replayed stream means
// the same thing on every run — and makes the ID space a deterministic
// function of the update stream alone. Adjacency lists are kept sorted, so
// neighbor iteration order is ID order everywhere, the same invariant the
// immutable graph.Graph core guarantees.
type DGraph struct {
	adj    [][]int // sorted adjacency per ID; nil for isolated and dead IDs
	dead   []bool  // retired IDs (RemoveNode)
	nAlive int
	m      int
}

// NewDGraph builds a dynamic graph seeded with a snapshot of g (every
// vertex of g alive, IDs preserved).
func NewDGraph(g *graph.Graph) *DGraph {
	d := &DGraph{
		adj:    make([][]int, g.N()),
		dead:   make([]bool, g.N()),
		nAlive: g.N(),
		m:      g.M(),
	}
	for v := 0; v < g.N(); v++ {
		if ns := g.Neighbors(v); len(ns) > 0 {
			d.adj[v] = append([]int(nil), ns...)
		}
	}
	return d
}

// NumIDs returns the size of the ID space: every ID ever allocated,
// retired ones included. Valid IDs are 0..NumIDs()-1.
func (d *DGraph) NumIDs() int { return len(d.adj) }

// AliveCount returns the number of live vertices.
func (d *DGraph) AliveCount() int { return d.nAlive }

// M returns the number of (undirected) edges.
func (d *DGraph) M() int { return d.m }

// Alive reports whether v is a live vertex (allocated and not removed).
func (d *DGraph) Alive(v int) bool { return v >= 0 && v < len(d.adj) && !d.dead[v] }

// Neighbors returns v's sorted adjacency list. The slice aliases internal
// storage, is invalidated by the next mutation, and must not be modified.
func (d *DGraph) Neighbors(v int) []int { return d.adj[v] }

// Degree returns v's degree.
func (d *DGraph) Degree(v int) int { return len(d.adj[v]) }

// HasEdge reports whether {u, v} is an edge (binary search).
func (d *DGraph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(d.adj) {
		return false
	}
	row := d.adj[u]
	i := sort.SearchInts(row, v)
	return i < len(row) && row[i] == v
}

// checkEndpoint validates one edge endpoint.
func (d *DGraph) checkEndpoint(v int) error {
	if v < 0 || v >= len(d.adj) {
		return fmt.Errorf("vertex %d out of range [0,%d)", v, len(d.adj))
	}
	if d.dead[v] {
		return fmt.Errorf("vertex %d is removed", v)
	}
	return nil
}

// InsertEdge adds the edge {u, v}. Self-loops, dead or out-of-range
// endpoints, and edges that already exist are errors.
func (d *DGraph) InsertEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("self-loop at %d", u)
	}
	if err := d.checkEndpoint(u); err != nil {
		return err
	}
	if err := d.checkEndpoint(v); err != nil {
		return err
	}
	if d.HasEdge(u, v) {
		return fmt.Errorf("edge (%d,%d) already exists", u, v)
	}
	d.adj[u] = insertSorted(d.adj[u], v)
	d.adj[v] = insertSorted(d.adj[v], u)
	d.m++
	return nil
}

// RemoveEdge deletes the edge {u, v}; removing an absent edge is an error.
func (d *DGraph) RemoveEdge(u, v int) error {
	if err := d.checkEndpoint(u); err != nil {
		return err
	}
	if err := d.checkEndpoint(v); err != nil {
		return err
	}
	if !d.HasEdge(u, v) {
		return fmt.Errorf("edge (%d,%d) does not exist", u, v)
	}
	d.adj[u] = removeSorted(d.adj[u], v)
	d.adj[v] = removeSorted(d.adj[v], u)
	d.m--
	return nil
}

// InsertNode allocates the next vertex ID and returns it. The new vertex
// starts isolated; wire it with InsertEdge.
func (d *DGraph) InsertNode() int {
	id := len(d.adj)
	d.adj = append(d.adj, nil)
	d.dead = append(d.dead, false)
	d.nAlive++
	return id
}

// RemoveNode retires vertex v, deleting every incident edge, and returns
// v's former neighbors (sorted). The returned slice is v's old adjacency
// storage, owned by the caller from here on.
func (d *DGraph) RemoveNode(v int) ([]int, error) {
	if err := d.checkEndpoint(v); err != nil {
		return nil, err
	}
	former := d.adj[v]
	for _, w := range former {
		d.adj[w] = removeSorted(d.adj[w], v)
	}
	d.m -= len(former)
	d.adj[v] = nil
	d.dead[v] = true
	d.nAlive--
	return former, nil
}

// Apply performs one update and appends the vertices it touched to
// touched: an edge update's two endpoints, an inserted vertex, or a
// removed vertex's former neighbors. An OpInsertNode with U >= 0 must
// name the ID InsertNode allocates. Engine.Apply and the
// full-recompute baseline both mutate their graphs through it.
func (d *DGraph) Apply(u Update, touched []int) ([]int, error) {
	switch u.Op {
	case OpInsertEdge:
		return append(touched, u.U, u.V), d.InsertEdge(u.U, u.V)
	case OpRemoveEdge:
		return append(touched, u.U, u.V), d.RemoveEdge(u.U, u.V)
	case OpInsertNode:
		id := d.InsertNode()
		if u.U >= 0 && u.U != id {
			return touched, fmt.Errorf("expected node ID %d, allocated %d", u.U, id)
		}
		return append(touched, id), nil
	case OpRemoveNode:
		former, err := d.RemoveNode(u.U)
		return append(touched, former...), err
	default:
		return touched, fmt.Errorf("invalid op %v", u.Op)
	}
}

// Snapshot materializes the live subgraph as an immutable graph.Graph plus
// the mapping back to DGraph IDs: orig[i] is the DGraph ID of snapshot
// vertex i. Used by the full-recompute baseline and the property tests.
func (d *DGraph) Snapshot() (*graph.Graph, []int) {
	orig := make([]int, 0, d.nAlive)
	local := make([]int, len(d.adj))
	for v := range d.adj {
		if d.dead[v] {
			local[v] = -1
			continue
		}
		local[v] = len(orig)
		orig = append(orig, v)
	}
	edges := make([]graph.Edge, 0, d.m)
	for i, v := range orig {
		for _, w := range d.adj[v] {
			if j := local[w]; i < j {
				edges = append(edges, graph.Edge{U: i, V: j})
			}
		}
	}
	return graph.MustNew(len(orig), edges), orig
}

// insertSorted inserts x into sorted row, preserving order.
func insertSorted(row []int, x int) []int {
	i := sort.SearchInts(row, x)
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = x
	return row
}

// removeSorted deletes x from sorted row; the caller guarantees presence.
func removeSorted(row []int, x int) []int {
	i := sort.SearchInts(row, x)
	copy(row[i:], row[i+1:])
	return row[:len(row)-1]
}
