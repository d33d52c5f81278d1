package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"

	"counterlight/internal/cipher"
	"counterlight/internal/epoch"
)

// Service topology shared by both workloads: two closed-loop
// connections, each the single owner of a contiguous half of an
// 8192-block working set (32x the 256-slot pad cache, 64x the
// 128-entry memoization table).
const (
	conns        = 2
	workingSet   = 8192
	blocksPerCon = workingSet / conns
)

// op is one pre-generated request, packed into 16 bytes. Data seeds
// the 64-byte payload of a write (see payload).
type op struct {
	Block uint32 // absolute block index
	Write bool
	Mode  uint8 // epoch.Mode of a write; never Auto, so work per op is load-independent
	Data  uint64
}

func (o op) mode() epoch.Mode { return epoch.Mode(o.Mode) }

// svcStreams is everything a service workload submits: the prefill
// writes that set up the working set and the per-connection op
// streams the timed windows cycle through.
type svcStreams struct {
	prefill [conns][]op
	ops     [conns][]op
}

// svcShape describes one workload's service traffic.
type svcShape struct {
	readFrac       float64 // share of reads
	counterlessOfW float64 // share of writes stored counterless
	perConn        int     // stream length per connection (cycled when exhausted)
	journal        bool    // Journal+Persist on, as clserve -verify runs it
}

// streamLen is each connection's stream length: 1 MB per connection,
// 16x its blocks, so every block is touched many times per cycle.
const streamLen = 1 << 16

// shapes is each workload's service traffic: reads only over an
// unjournaled pool, or half reads and half explicit-mode writes with
// journaling on.
var shapes = map[string]svcShape{
	"read":  {readFrac: 1, perConn: streamLen},
	"write": {readFrac: 0.5, counterlessOfW: 0.02, perConn: streamLen, journal: true},
}

// genStreams derives a workload's service streams from the seed alone.
// Connection c owns blocks [c*blocksPerCon, (c+1)*blocksPerCon).
func genStreams(sh svcShape, seed int64) *svcStreams {
	s := &svcStreams{}
	for c := 0; c < conns; c++ {
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(c)))
		lo := uint32(c * blocksPerCon)
		pre := make([]op, blocksPerCon)
		for i := range pre {
			pre[i] = op{Block: lo + uint32(i), Write: true, Mode: uint8(epoch.CounterMode), Data: rng.Uint64()}
		}
		ops := make([]op, sh.perConn)
		for i := range ops {
			o := op{Block: lo + uint32(rng.IntN(blocksPerCon))}
			if rng.Float64() >= sh.readFrac {
				o.Write = true
				o.Mode = uint8(epoch.CounterMode)
				if rng.Float64() < sh.counterlessOfW {
					o.Mode = uint8(epoch.Counterless)
				}
				o.Data = rng.Uint64()
			}
			ops[i] = o
		}
		s.prefill[c], s.ops[c] = pre, ops
	}
	return s
}

// digest fingerprints the streams; the run record prints it so two
// runs can be shown to have submitted the same inputs.
func (s *svcStreams) digest() string {
	h := sha256.New()
	var buf [14]byte
	put := func(o op) {
		binary.LittleEndian.PutUint32(buf[0:], o.Block)
		buf[4] = 0
		if o.Write {
			buf[4] = 1
		}
		buf[5] = o.Mode
		binary.LittleEndian.PutUint64(buf[6:], o.Data)
		h.Write(buf[:])
	}
	for c := 0; c < conns; c++ {
		for _, o := range s.prefill[c] {
			put(o)
		}
		for _, o := range s.ops[c] {
			put(o)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// payload expands a write's data seed into its 64-byte plaintext
// (splitmix64), cheap enough to do at submit time.
func payload(seed uint64) cipher.Block {
	var b cipher.Block
	x := seed
	for i := 0; i < cipher.BlockSize; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b[i:], z^(z>>31))
	}
	return b
}

func addrOf(block uint32) uint64 { return uint64(block) * cipher.BlockSize }
