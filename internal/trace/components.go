package trace

import (
	"bopsim/internal/mem"
	"bopsim/internal/rng"
)

// component is one memory-access pattern inside a workload. Components
// produce only the memory operations; the workload mixer interleaves them
// with ALU work.
type component interface {
	next(r *rng.Stream) Inst
	// saveState/restoreState serialize the component's cursor for
	// checkpoint/restore (see state.go).
	saveState() ComponentState
	restoreState(ComponentState) error
}

// streamComp is a constant-byte-stride stream wrapping inside a region: the
// building block for sequential (stride <= 64B) and strided workloads.
type streamComp struct {
	pc       uint64
	base     mem.Addr
	pos      mem.Addr
	stride   int64
	region   mem.Addr
	storePct int // percentage of accesses that are stores
}

func newStream(pc uint64, base mem.Addr, stride int64, region mem.Addr, storePct int) *streamComp {
	s := &streamComp{pc: pc, base: base, stride: stride, region: region, storePct: storePct}
	// Stagger the starting position (derived from the PC, so still fully
	// deterministic). Without this, parallel streams advance in lockstep at
	// identical intra-page offsets and, with large pages, resonate on the
	// same DRAM bank — an artifact real programs' allocators avoid.
	if stride > 0 && region > mem.Addr(stride) {
		steps := int64(region) / stride
		s.pos = mem.Addr((int64(mem.Mix64(pc)%uint64(steps)) * stride))
	}
	return s
}

func (s *streamComp) next(r *rng.Stream) Inst {
	op := OpLoad
	if s.storePct > 0 && r.Intn(100) < s.storePct {
		op = OpStore
	}
	inst := Inst{Op: op, PC: s.pc, VA: s.base + s.pos}
	s.pos = mem.Addr(int64(s.pos) + s.stride)
	if s.pos >= s.region || int64(s.pos) < 0 {
		s.pos = 0
	}
	return inst
}

// chunkComp models array-of-structs traversal: chunkWords consecutive
// 8-byte accesses at each position (one per static PC, so the DL1 stride
// prefetcher sees a constant per-PC stride), then a jump of jumpBytes to
// the next element. A 16-word chunk with a 2KB jump reproduces the
// 433.milc-like behaviour whose speedup peaks at offset multiples of 32
// lines (Figure 8).
type chunkComp struct {
	pcBase     uint64
	base       mem.Addr
	pos        mem.Addr
	chunkWords int
	wordIdx    int
	jumpBytes  int64
	region     mem.Addr
	storePct   int
}

func newChunk(pcBase uint64, base mem.Addr, chunkWords int, jumpBytes int64, region mem.Addr, storePct int) *chunkComp {
	if chunkWords < 1 {
		chunkWords = 1
	}
	c := &chunkComp{pcBase: pcBase, base: base, chunkWords: chunkWords,
		jumpBytes: jumpBytes, region: region, storePct: storePct}
	// Deterministic per-component stagger; see newStream.
	if jumpBytes > 0 && region > mem.Addr(jumpBytes) {
		steps := int64(region) / jumpBytes
		c.pos = mem.Addr(int64(mem.Mix64(pcBase)%uint64(steps)) * jumpBytes)
	}
	return c
}

func (c *chunkComp) next(r *rng.Stream) Inst {
	op := OpLoad
	if c.storePct > 0 && r.Intn(100) < c.storePct {
		op = OpStore
	}
	va := c.base + c.pos + mem.Addr(c.wordIdx*8)
	pc := c.pcBase + uint64(c.wordIdx)*4
	c.wordIdx++
	if c.wordIdx >= c.chunkWords {
		c.wordIdx = 0
		c.pos = mem.Addr(int64(c.pos) + c.jumpBytes)
		if c.pos >= c.region || int64(c.pos) < 0 {
			c.pos = 0
		}
	}
	return Inst{Op: op, PC: pc, VA: va}
}

// stripesComp models S interleaved streams ("stripes") sharing one region:
// stripe j touches lines {S*k + j}, one chunk (chunkWords 8-byte accesses)
// per position, round-robin across stripes. Stripe start positions are
// randomly staggered (re-randomized on each region wrap), so every line is
// eventually touched — a next-line prefetcher gets coverage, as the paper
// reports for 433/459/470 — but cross-stripe offsets have unpredictable
// timing while offsets that are multiples of S stay within a stripe and
// are reliably timely. This is what produces Figure 8's speedup peaks at
// multiples of 32 (433.milc-like), ~29 (459.GemsFDTD-like) and 5
// (470.lbm-like).
type stripesComp struct {
	pcBase     uint64
	base       mem.Addr
	stripes    int
	positions  []int64 // current position index per stripe
	starts     []int64
	cur        int // stripe being accessed this round
	chunkWords int
	wordIdx    int
	posPerStr  int64 // positions per stripe before wrap
	maxLag     int64
	storePct   int
	staggered  bool // lazily randomize the initial stagger
	// strides, when non-nil, replaces the uniform spacing: stripe j's k-th
	// position is at line j + prefix-sum of the cyclic stride sequence.
	// [29,30,29] gives the 459.GemsFDTD-like structure where offset 30
	// aligns on a third of the positions (and 29 — not in the offset list —
	// on all of them).
	strides []int64
	prefix  []int64 // prefix sums over one stride period
	period  int64   // sum of strides over one period
}

func newStripes(pcBase uint64, base mem.Addr, stripes, chunkWords int, region mem.Addr, maxLag int64, storePct int) *stripesComp {
	if stripes < 1 {
		stripes = 1
	}
	if chunkWords < 1 {
		chunkWords = 1
	}
	s := &stripesComp{
		pcBase:     pcBase,
		base:       base,
		stripes:    stripes,
		positions:  make([]int64, stripes),
		starts:     make([]int64, stripes),
		chunkWords: chunkWords,
		posPerStr:  int64(region) / mem.LineSize / int64(stripes),
		maxLag:     maxLag,
		storePct:   storePct,
	}
	if s.posPerStr < 1 {
		// A region too small for the stripe count would divide by zero in
		// next (pos % posPerStr). The spec layer's footprint floor keeps
		// every registered configuration well clear of this; the clamp is a
		// hard guard so no parameter combination can panic mid-simulation.
		s.posPerStr = 1
	}
	return s
}

// newStripesPattern is newStripes with a non-uniform within-stripe stride
// sequence (in lines).
func newStripesPattern(pcBase uint64, base mem.Addr, stripes int, strideSeq []int64, chunkWords int, region mem.Addr, maxLag int64, storePct int) *stripesComp {
	s := newStripes(pcBase, base, stripes, chunkWords, region, maxLag, storePct)
	s.strides = strideSeq
	s.prefix = make([]int64, len(strideSeq)+1)
	for i, st := range strideSeq {
		s.prefix[i+1] = s.prefix[i] + st
	}
	s.period = s.prefix[len(strideSeq)]
	// With explicit strides, positions count pattern steps; the stripe
	// wraps when its line offset would leave the region.
	s.posPerStr = (int64(region)/mem.LineSize - int64(stripes)) / s.period * int64(len(strideSeq))
	if s.posPerStr < 1 {
		s.posPerStr = 1 // see newStripes: never divide by zero in next
	}
	return s
}

// lineOf returns the line index (within the region) of stripe j at position
// pos.
func (s *stripesComp) lineOf(j int, pos int64) int64 {
	if s.strides == nil {
		return pos*int64(s.stripes) + int64(j)
	}
	n := int64(len(s.strides))
	return int64(j) + (pos/n)*s.period + s.prefix[pos%n]
}

func (s *stripesComp) next(r *rng.Stream) Inst {
	if !s.staggered {
		s.staggered = true
		if s.maxLag > 0 {
			for j := range s.starts {
				s.starts[j] = int64(r.Uint64() % uint64(s.maxLag))
			}
		}
	}
	op := OpLoad
	if s.storePct > 0 && r.Intn(100) < s.storePct {
		op = OpStore
	}
	j := s.cur
	pos := (s.starts[j] + s.positions[j]) % s.posPerStr
	line := s.lineOf(j, pos)
	va := s.base + mem.Addr(line*mem.LineSize) + mem.Addr(s.wordIdx*8)
	// All stripes share one set of PCs (the same static loop body touches
	// every stripe), so the per-PC stride alternates between stripes and
	// the DL1 stride prefetcher cannot lock on — matching the paper's
	// observation that the L1 prefetcher is ineffective on 433.milc-like
	// code (footnote 11).
	pc := s.pcBase + uint64(s.wordIdx)*4
	s.wordIdx++
	if s.wordIdx >= s.chunkWords {
		s.wordIdx = 0
		s.positions[j]++
		if s.positions[j] >= s.posPerStr {
			// Region wrap for this stripe: restart with a fresh stagger.
			s.positions[j] = 0
			if s.maxLag > 0 {
				s.starts[j] = int64(r.Uint64() % uint64(s.maxLag))
			}
		}
		s.cur = (s.cur + 1) % s.stripes
	}
	return Inst{Op: op, PC: pc, VA: va}
}

// randomComp issues uniformly distributed accesses inside a region; with
// dep set, each access is a pointer-chase step serialized on the previous
// load.
type randomComp struct {
	pcBase   uint64
	pcCount  uint64
	pcNext   uint64
	base     mem.Addr
	region   mem.Addr
	storePct int
	dep      bool
}

func newRandom(pcBase uint64, pcCount uint64, base, region mem.Addr, storePct int, dep bool) *randomComp {
	if pcCount == 0 {
		pcCount = 1
	}
	return &randomComp{pcBase: pcBase, pcCount: pcCount, base: base, region: region, storePct: storePct, dep: dep}
}

func (c *randomComp) next(r *rng.Stream) Inst {
	op := OpLoad
	if c.storePct > 0 && r.Intn(100) < c.storePct {
		op = OpStore
	}
	off := mem.Addr(r.Uint64()) % c.region
	off &^= 7 // 8-byte aligned
	pc := c.pcBase + (c.pcNext%c.pcCount)*4
	c.pcNext++
	return Inst{Op: op, PC: pc, VA: c.base + off, DepPrevLoad: c.dep && op == OpLoad}
}
