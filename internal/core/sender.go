package core

import (
	"repro/internal/cc"
	"repro/internal/sim"
)

// UsageRecorder receives one callback per rule lookup during a simulation.
// The optimizer uses it to find the most-used rule of the current epoch and
// the median memory point that triggered it (§4.3 steps 2 and 5).
type UsageRecorder interface {
	RecordUse(whiskerIndex int, mem Memory)
}

// TouchRecorder is an optional extension of UsageRecorder for observers that
// need to know every rule a simulation consulted, not just the per-ACK uses:
// RecordTouch fires for the lookup a sender performs when (re)starting a
// connection, which applies the rule's intersend gap but does not count as a
// "use" in the §4.3 sense. The optimizer's usage-pruned candidate
// re-simulation depends on these touches — a specimen can be influenced by a
// rule its flows never used on an ACK.
type TouchRecorder interface {
	RecordTouch(whiskerIndex int)
}

// Sender executes a RemyCC: on every incoming ACK it updates its memory,
// looks up the matching whisker, and applies that whisker's action to its
// congestion window and pacing interval. It implements cc.Algorithm, so it
// plugs into the same Transport (and therefore the same loss-recovery
// machinery) as every baseline TCP variant, exactly as the paper implants
// RemyCCs into an existing TCP sender.
type Sender struct {
	tree *WhiskerTree

	mem       Memory
	cwnd      float64
	intersend sim.Time

	haveAck     bool
	lastAckTime sim.Time
	lastSentTS  sim.Time

	// lastWhisker memoizes the most recently matched rule; consecutive ACKs
	// of a flow usually stay in the same rule, so LookupHint skips the
	// octree walk on the hit path.
	lastWhisker int

	// Recorder, when non-nil, observes every rule lookup.
	Recorder UsageRecorder
}

// NewSender builds a RemyCC sender executing the given rule table. The tree
// is used read-only, so many senders (across goroutines running separate
// simulations) may share one tree.
func NewSender(tree *WhiskerTree) *Sender {
	s := &Sender{tree: tree, lastWhisker: -1}
	s.Reset(0)
	return s
}

// Rebind points an idle sender at another rule table and recorder. The
// matched-rule hint is dropped (it indexes the old table) and the connection
// state cleared; the first lookup in the new table happens where a fresh
// sender's first recorded one does, in the Reset its transport issues at flow
// start, so from there on a rebound sender and NewSender(tree) with the same
// Recorder are indistinguishable. The optimizer scores ~100 candidate tables
// per improvement step on the same specimen worlds and rebinds a warm world's
// senders to each candidate instead of building the world again.
func (s *Sender) Rebind(tree *WhiskerTree, rec UsageRecorder) {
	s.tree = tree
	s.Recorder = rec
	s.lastWhisker = -1
	s.clear()
}

// Name implements cc.Algorithm.
func (s *Sender) Name() string { return "remy" }

// Tree returns the rule table this sender executes.
func (s *Sender) Tree() *WhiskerTree { return s.tree }

// Memory returns the sender's current memory (for tests and tracing).
func (s *Sender) Memory() Memory { return s.mem }

// Reset implements cc.Algorithm: the memory returns to the all-zeroes
// initial state at the start of each connection (§4.1) and the window starts
// at one segment.
func (s *Sender) Reset(now sim.Time) {
	s.clear()
	s.applyCurrent()
}

func (s *Sender) clear() {
	s.mem = Memory{}
	s.cwnd = 1
	s.intersend = 0
	s.haveAck = false
	s.lastAckTime = 0
	s.lastSentTS = 0
}

// applyCurrent refreshes the pacing interval from the rule matching the
// current memory without modifying the window (used at connection start).
func (s *Sender) applyCurrent() {
	idx, action := s.tree.LookupHint(s.mem, s.lastWhisker)
	s.lastWhisker = idx
	if rec, ok := s.Recorder.(TouchRecorder); ok {
		rec.RecordTouch(idx)
	}
	s.intersend = sim.FromMillis(action.IntersendMs)
}

// OnAck implements cc.Algorithm: update the memory from this ACK's timing,
// look up the action, and apply it.
func (s *Sender) OnAck(ev cc.AckEvent) {
	now := ev.Now
	sentAt := ev.Ack.SentAt

	if !s.haveAck {
		s.haveAck = true
		s.lastAckTime = now
		s.lastSentTS = sentAt
	} else {
		ackGap := float64(now-s.lastAckTime) / float64(sim.Millisecond)
		sendGap := float64(sentAt-s.lastSentTS) / float64(sim.Millisecond)
		if ackGap < 0 {
			ackGap = 0
		}
		if sendGap < 0 {
			sendGap = 0
		}
		s.mem = s.mem.UpdateEWMAs(ackGap, sendGap)
		s.lastAckTime = now
		s.lastSentTS = sentAt
	}
	if ev.RTT > 0 && ev.MinRTT > 0 {
		s.mem.RTTRatio = float64(ev.RTT) / float64(ev.MinRTT)
	}
	s.mem = s.mem.Clamp()

	idx, action := s.tree.LookupHint(s.mem, s.lastWhisker)
	s.lastWhisker = idx
	if s.Recorder != nil {
		s.Recorder.RecordUse(idx, s.mem)
	}
	s.cwnd = action.Apply(s.cwnd)
	s.intersend = sim.FromMillis(action.IntersendMs)
}

// OnLoss implements cc.Algorithm. RemyCCs intentionally do not use packet
// loss as a congestion signal (§4.1); the Transport still performs loss
// recovery (retransmission), but the window is driven purely by the rule
// table.
func (s *Sender) OnLoss(now sim.Time) {}

// OnTimeout implements cc.Algorithm. A retransmission timeout means the ACK
// clock stalled; restart conservatively from one segment so the connection
// can re-establish its ACK clock, while leaving the memory intact.
func (s *Sender) OnTimeout(now sim.Time) {
	if s.cwnd > 1 {
		s.cwnd = 1
	}
}

// Window implements cc.Algorithm.
func (s *Sender) Window() float64 { return s.cwnd }

// PacingGap implements cc.Algorithm: the r component of the current action.
func (s *Sender) PacingGap() sim.Time { return s.intersend }
