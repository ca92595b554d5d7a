package core

import (
	"fmt"
	"math"
	"strconv"

	"tellme/internal/billboard"
	"tellme/internal/probe"
)

// ObjectSpace abstracts the objects ZeroRadius divides and probes.
//
// For the plain algorithm the abstract objects are real objects and a
// probe is one billboard probe (BinarySpace). For Large Radius, Step 4,
// each abstract object is a whole object group whose possible values are
// Coalesce candidates; probing it runs Select over the group
// (VirtualSpace in largeradius.go).
type ObjectSpace interface {
	// Len returns the number of abstract objects.
	Len() int
	// Probe reveals player pl's value for abstract object j, charging
	// pl for whatever real probing that takes.
	Probe(pl *probe.Player, j int) uint32
}

// BatchObjectSpace is implemented by object spaces whose probes have no
// sequential dependency, so a whole set of abstract objects can be
// probed in one batched call (one network round trip against a remote
// billboard). ZeroRadius leaves use it when available; spaces whose
// probes are adaptive (VirtualSpace runs Select per probe) simply don't
// implement it and keep the per-object path.
type BatchObjectSpace interface {
	ObjectSpace
	// ProbeMany probes abstract objects js, writing values into dst
	// (dst[k] for js[k]), equivalently to calling Probe per object.
	ProbeMany(pl *probe.Player, js []int, dst []uint32)
}

// BinarySpace is the identity ObjectSpace: abstract object j is the real
// object Objs[j] and its value is the player's 0/1 grade.
type BinarySpace struct {
	Objs []int
}

// Len implements ObjectSpace.
func (s BinarySpace) Len() int { return len(s.Objs) }

// Probe implements ObjectSpace.
func (s BinarySpace) Probe(pl *probe.Player, j int) uint32 {
	return uint32(pl.Probe(s.Objs[j]))
}

// ProbeMany implements BatchObjectSpace: one batched probe call for the
// mapped real objects.
func (s BinarySpace) ProbeMany(pl *probe.Player, js []int, dst []uint32) {
	objs := pl.ObjScratch(len(js))
	for k, j := range js {
		objs[k] = s.Objs[j]
	}
	pl.ProbeMany(objs, dst)
}

// zrNode is one node of the ZeroRadius recursion tree. The tree is built
// by the shared coin, so every player knows the full structure. The
// billboard topic is precomputed so the per-player phase bodies never
// format strings.
type zrNode struct {
	depth       int
	topic       string
	ref         billboard.TopicRef // resolved for the node's posting level on a batchPoster
	pos         []int              // the node's players, as positions in its job's player list
	objs        []int              // abstract object ids
	cands       [][]uint32
	left, right *zrNode
}

func (nd *zrNode) leaf() bool { return nd.left == nil }

// batchPoster is optionally implemented by boards that can take a whole
// node's posting burst in one call (billboard.Board.PostValuesBatchRef).
// ZeroRadius posts one value vector per player per node per level, and
// nothing reads a node's topic until the level's phase barrier has
// passed — so the coordinator can hold each phase's rows (they are
// pre-published scratch, written during the phase) and ship them per
// node afterwards, equivalently to the per-player posts but with one
// lock acquisition and one storage carve per node instead of per post.
type batchPoster interface {
	TopicRef(name string) billboard.TopicRef
	PostValuesBatchRef(r billboard.TopicRef, players []int, rows [][]uint32)
}

// ZeroRadius implements Algorithm Zero Radius (Fig. 2) for the players
// in `players` over the given object space, with frequency parameter
// alpha.
//
// Returns out[p] = player p's output value vector (length space.Len(),
// indexed by abstract object id); entries for non-participating players
// are nil. If at least alpha·len(players) participants share identical
// value vectors, Theorem 3.1 says w.h.p. they all output that shared
// vector, after O(log n/α) probes each (times the per-probe cost of the
// space).
func ZeroRadius(env *Env, players []int, space ObjectSpace, alpha float64) [][]uint32 {
	out := make([][]uint32, env.N)
	flat := zeroRadiusFlat(env, players, space, alpha)
	width := space.Len()
	for i, p := range players {
		out[p] = flat[i*width : (i+1)*width]
	}
	return out
}

// zeroRadiusFlat is ZeroRadius with positional, packed output: the
// returned slice holds players[i]'s value vector at
// [i*width, (i+1)*width), width = space.Len(). It is the one-job case
// of zeroRadiusJobs.
func zeroRadiusFlat(env *Env, players []int, space ObjectSpace, alpha float64) []uint32 {
	if len(players) == 0 {
		return nil
	}
	sc := &env.scratch
	defer sc.release(sc.mark())
	sets := []zrSet{{players: players, jobs: []zrJob{{space: space, alpha: alpha}}}}
	sets[0].jobs[0].plan(env, sc.iota(len(players)))
	zeroRadiusJobs(env, sets)
	return sets[0].jobs[0].out
}

// zrSet is a list of ZeroRadius jobs over the same players, such as
// the parts of one SmallRadius call.
type zrSet struct {
	players []int
	jobs    []zrJob
}

// zrJob is one ZeroRadius instance of a fused call: its set's players
// over space, with frequency parameter alpha. plan builds its recursion
// tree and zeroRadiusJobs runs it, leaving players[i]'s output value
// vector at out[i*width : (i+1)*width], width = space.Len().
type zrJob struct {
	space ObjectSpace
	alpha float64
	batch BatchObjectSpace // space, if it probes in batches

	byLevel [][]*zrNode
	out     []uint32
	deep    *zrDeep // nil for a one-level job (the root is a leaf)
}

// zrDeep is the per-player state of a job of more than one level:
// nodeAt[i] is players[i]'s node at the level running, childAt[i] the
// node it completed last (so an internal node knows which child the
// player came from), and rows[i] the vector it posts at the level
// running.
type zrDeep struct {
	nodeAt, childAt []*zrNode
	rows            [][]uint32
}

// plan mints the job's topic tag and builds its recursion tree with
// the tag's public coin over the root positions pos (0..n-1 for the
// set's n players, read only), on the coordinator arena of the
// caller's region. A fused caller plans its jobs in the order it would
// have called ZeroRadius one job at a time, so every topic name and
// coin is the same as in that order.
func (jb *zrJob) plan(env *Env, pos []int) {
	if jb.alpha <= 0 || jb.alpha > 1 {
		panic(fmt.Sprintf("core: ZeroRadius alpha %v out of (0,1]", jb.alpha))
	}
	env.count(CountZeroRadius)
	tag := env.freshTag("zr")
	threshold := env.leafThreshold(jb.alpha)
	sc := &env.scratch
	coin := env.Public.Stream(tag, 0)
	jb.batch, _ = jb.space.(BatchObjectSpace)
	nextID := 0
	var build func(ps, os []int, depth int) *zrNode
	build = func(ps, os []int, depth int) *zrNode {
		nd := &sc.nodes.Make(1)[0]
		nd.depth = depth
		if depth > 0 { // the root is never posted
			var tb [32]byte
			tbuf := append(tb[:0], tag...)
			tbuf = append(tbuf, '/')
			nd.topic = string(strconv.AppendInt(tbuf, int64(nextID), 10))
		}
		nd.pos = ps
		nd.objs = os
		nextID++
		for len(jb.byLevel) <= depth {
			jb.byLevel = append(jb.byLevel, nil)
		}
		jb.byLevel[depth] = append(jb.byLevel[depth], nd)
		if min(len(ps), len(os)) >= threshold {
			pa, pb := splitHalfArena(sc, coin, ps)
			oa, ob := splitHalfArena(sc, coin, os)
			nd.left = build(pa, oa, depth+1)
			nd.right = build(pb, ob, depth+1)
		}
		return nd
	}
	// Nodes hold positions in players, which index the job's per-player
	// rows directly. A shuffle's swaps depend only on the length, so the
	// coin splits positions exactly as it would split the ids.
	build(pos, sc.iota(jb.space.Len()), 0)
}

// node returns the node of players[i] at level, nil if it has none.
func (jb *zrJob) node(i, level int) *zrNode {
	switch {
	case level >= len(jb.byLevel):
		return nil
	case len(jb.byLevel) == 1:
		return jb.byLevel[0][0]
	}
	if nd := jb.deep.nodeAt[i]; nd != nil && nd.depth == level {
		return nd
	}
	return nil
}

// zeroRadiusJobs runs planned, independent ZeroRadius jobs in
// lockstep: level by level from the bottom of the deepest tree, one
// phase per level over the union of the players with a node at that
// level, each player walking its jobs in order (set by set, job by
// job). Jobs share no topics, so running them side by side computes
// what running them one after another would, in as many phases as the
// deepest job alone.
//
// The root level is not posted: nothing reads it (a node's topic is
// read only by its parent's level), so the root topic is never
// resolved or dropped.
func zeroRadiusJobs(env *Env, sets []zrSet) {
	sc := &env.scratch
	defer sc.release(sc.mark())
	lists := sc.lists.Make(len(sets))
	width, depth, calls := 0, 0, 0
	for s := range sets {
		lists[s] = sets[s].players
		for j := range sets[s].jobs {
			width += len(sets[s].players) * sets[s].jobs[j].space.Len()
			depth = max(depth, len(sets[s].jobs[j].byLevel))
		}
		calls += len(sets[s].jobs)
	}
	fu := sc.fuse(env.N, lists...)
	defer env.span(spanZeroRadius, fu.players, calls).end()

	// The outputs outlive the call, so they are one heap allocation.
	// Every row a phase body writes is handed out before the phase
	// starts, so phase bodies never allocate.
	flat := make([]uint32, width)
	for s := range sets {
		n := len(sets[s].players)
		for j := range sets[s].jobs {
			jb := &sets[s].jobs[j]
			w := jb.space.Len()
			jb.out, flat = flat[:n*w:n*w], flat[n*w:]
			if len(jb.byLevel) > 1 {
				jb.deep = &zrDeep{
					nodeAt:  sc.nodePtrs.Make(n),
					childAt: sc.nodePtrs.Make(n),
					rows:    make([][]uint32, n), // on the heap, as the rows are
				}
			}
		}
	}

	// Abort-path cleanup (see dropQuietly): only the running level and
	// the one below it can hold postings (levels are dropped once their
	// parents ran, and the root is never posted).
	level := depth
	defer func() {
		if rec := recover(); rec != nil {
			var names []string
			for s := range sets {
				for _, jb := range sets[s].jobs {
					for l := max(level, 1); l <= level+1 && l < len(jb.byLevel); l++ {
						for _, nd := range jb.byLevel[l] {
							names = append(names, nd.topic)
						}
					}
				}
			}
			env.dropQuietly(names...)
			panic(rec)
		}
	}()

	// Process levels bottom-up. At each level, leaves probe everything
	// they own and post; internal nodes adopt the sibling half's popular
	// vector via Select and post the combined vector.
	//
	// The vote tally over a sibling's postings is identical for every
	// reader (the billboard's deterministic ValueVotes), so it is
	// computed once per node before the phase rather than once
	// per player — the distributed "scan the billboard" step costs no
	// probes, and recomputing it n times per level would dominate
	// simulation time.
	phasePlayers := sc.a.Ints(len(fu.players))
	seen := sc.a.Ints(len(fu.players)) // seen[u] == level+1: players[u] is in the phase
	batcher, _ := env.Board.(batchPoster)
	post := batcher == nil
	for level = depth - 1; level >= 0; level-- {
		env.checkAborted()
		lm := sc.mark()
		// The level's posting rows live on the heap for the level only:
		// on the arena, or referenced from it, a wide level of many jobs
		// would stay allocated for the rest of the run.
		size, children := 0, 0
		for s := range sets {
			for _, jb := range sets[s].jobs {
				if level > 0 && level < len(jb.byLevel) {
					for _, nd := range jb.byLevel[level] {
						size += len(nd.pos) * len(nd.objs)
					}
				}
				if level+1 < len(jb.byLevel) {
					children += len(jb.byLevel[level+1])
				}
			}
		}
		backing := make([]uint32, size)
		// The level's phase reads its children's topics for the last
		// time, so it drops them (see Env.phase).
		drops := sc.names.Make(children)[:0]
		phasePlayers = phasePlayers[:0]
		for s := range sets {
			set := &sets[s]
			for j := range set.jobs {
				jb := &set.jobs[j]
				if level >= len(jb.byLevel) {
					continue
				}
				for _, nd := range jb.byLevel[level] {
					for _, i := range nd.pos {
						if jb.deep != nil {
							jb.deep.nodeAt[i] = nd
						}
						p := set.players[i]
						if u := fu.index(p); seen[u] != level+1 {
							seen[u] = level + 1
							phasePlayers = append(phasePlayers, p)
						}
					}
					if level > 0 {
						for _, i := range nd.pos {
							jb.deep.rows[i], backing = backing[:len(nd.objs):len(nd.objs)], backing[len(nd.objs):]
						}
						if batcher != nil {
							nd.ref = batcher.TopicRef(nd.topic)
						}
					}
					if !nd.leaf() {
						for _, child := range [2]*zrNode{nd.left, nd.right} {
							child.cands = popularValueCands(env, child.topic, child, jb.alpha)
							drops = append(drops, child.topic)
						}
					}
				}
			}
		}
		env.phase(phasePlayers, func(p int) {
			pl := env.Engine.Player(p)
			ss, is := fu.jobsOf(p)
			for m, s := range ss {
				for j := range sets[s].jobs {
					jb := &sets[s].jobs[j]
					if nd := jb.node(is[m], level); nd != nil {
						jb.step(env, pl, is[m], nd, post)
					}
				}
			}
		}, drops...)
		for s := range sets {
			set := &sets[s]
			for _, jb := range set.jobs {
				if level > 0 && level < len(jb.byLevel) && batcher != nil {
					// Ship every node's posting burst now that the
					// phase barrier has passed; per-topic posting order
					// (the node's player order) is exactly what the
					// per-player path produced.
					for _, nd := range jb.byLevel[level] {
						ids := sc.a.Ints(len(nd.pos))
						rows := make([][]uint32, len(nd.pos)) // not on the arena: see backing
						for k, i := range nd.pos {
							ids[k], rows[k] = set.players[i], jb.deep.rows[i]
						}
						batcher.PostValuesBatchRef(nd.ref, ids, rows)
					}
				}
			}
		}
		sc.release(lm)
	}
}

// step is players[i]'s work at node nd of its level: a leaf probes
// every object of the node (Fig. 2, Step 1), an internal node adopts
// the sibling half's output for its objects (Step 4). Below the root
// the node's vector goes to the player's posting row, which the player
// posts when post is set and the caller ships after the barrier
// otherwise. The root, whose objects are the row's own coordinates in
// order, writes the output row and posts nothing.
func (jb *zrJob) step(env *Env, pl *probe.Player, i int, nd *zrNode, post bool) {
	w := jb.space.Len()
	row := jb.out[i*w : (i+1)*w]
	if nd.depth == 0 {
		if nd.leaf() {
			jb.probeAll(pl, nd.objs, row)
		} else {
			jb.adopt(pl, i, nd, row)
		}
		return
	}
	vals := jb.deep.rows[i]
	if nd.leaf() {
		jb.probeAll(pl, nd.objs, vals)
		for j, obj := range nd.objs {
			row[obj] = vals[j]
		}
	} else {
		jb.adopt(pl, i, nd, row)
		for j, obj := range nd.objs {
			vals[j] = row[obj]
		}
	}
	jb.deep.childAt[i] = nd
	if post {
		env.Board.PostValues(nd.topic, pl.ID(), vals)
	}
}

// probeAll probes objs into dst (dst[k] for objs[k]). Leaf probes have
// no sequential dependency, so a batch-capable space ships them (and
// their billboard postings) in one batched call.
func (jb *zrJob) probeAll(pl *probe.Player, objs []int, dst []uint32) {
	if jb.batch != nil {
		jb.batch.ProbeMany(pl, objs, dst)
		return
	}
	for k, obj := range objs {
		dst[k] = jb.space.Probe(pl, obj)
	}
}

// adopt performs Fig. 2's Step 4 for players[i] at internal node nd:
// Select with distance bound 0 over the popular vectors of the half
// the player did not complete, written into row at that half's
// objects.
func (jb *zrJob) adopt(pl *probe.Player, i int, nd *zrNode, row []uint32) {
	sib := nd.left
	if sib == jb.deep.childAt[i] {
		sib = nd.right
	}
	if len(sib.cands) == 0 {
		return // sibling posted nothing (empty node); leave zeros
	}
	probeVal := func(t int) uint32 { return jb.space.Probe(pl, sib.objs[t]) }
	win := sib.cands[selectValuesScratch(pl.Arena(), probeVal, sib.cands, 0)]
	for j, obj := range sib.objs {
		row[obj] = win[j]
	}
}

// popularValueCands tallies a node's posted vectors and returns those
// with at least VoteFrac·alpha·|players| votes (Fig. 2, Step 4's set V),
// falling back to all posted vectors when none is popular enough (the
// premise-violated case Theorem 3.1 does not cover).
func popularValueCands(env *Env, topic string, nd *zrNode, alpha float64) [][]uint32 {
	votes := env.Board.ValueVotes(topic)
	need := int(math.Ceil(alpha * env.Cfg.VoteFrac * float64(len(nd.pos))))
	if need < 1 {
		need = 1
	}
	var cands [][]uint32
	for _, v := range votes {
		if v.Count >= need {
			cands = append(cands, v.Vals)
		}
	}
	if len(cands) == 0 {
		for _, v := range votes {
			cands = append(cands, v.Vals)
		}
	}
	return cands
}

// ZeroRadiusBits runs ZeroRadius over real binary objects and returns
// each participating player's output as a bit slice aligned with objs.
func ZeroRadiusBits(env *Env, players []int, objs []int, alpha float64) [][]uint32 {
	return ZeroRadius(env, players, BinarySpace{Objs: objs}, alpha)
}
