package aqm

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// SfqCoDel is stochastic fair queueing with per-queue CoDel, the
// router-assisted scheme the paper calls "Cubic-over-sfqCoDel" when paired
// with a Cubic sender. Flows are hashed into a fixed number of buckets, each
// bucket is an independent CoDel queue, and buckets are served by deficit
// round robin with an MTU-sized quantum, isolating flows from one another.
//
// A bucket's CoDel queue is created on the first packet hashed into it: with
// far fewer flows than buckets nearly all stay nil, and building a discipline
// costs a handful of allocations instead of one per bucket.
type SfqCoDel struct {
	buckets []*CoDel // nil until a packet lands in the bucket
	created []int    // indices of the non-nil buckets, in creation order
	// template is what a new bucket starts as: the shared capacity, the CoDel
	// parameters and the drop hook.
	template CoDel
	deficits []int
	active   intRing // round-robin order of non-empty buckets
	inActive []bool
	quantum  int
	capacity int // total packets across buckets
	length   int
	bytes    int
	drops    int64

	// dropHook is the external observer of dequeue-time drops; the buckets'
	// own hooks point at onBucketDrop, which keeps the aggregate counters
	// exact (per dropped packet size, not an MTU guess) and then forwards.
	dropHook func(*netsim.Packet)
}

// NewSfqCoDel builds an sfqCoDel discipline with the given number of
// buckets and a total capacity in packets shared across buckets.
func NewSfqCoDel(buckets, capacity int) (*SfqCoDel, error) {
	return NewSfqCoDelWithParams(buckets, capacity, CoDelTarget, CoDelInterval)
}

// NewSfqCoDelWithParams allows tests to use faster CoDel parameters.
func NewSfqCoDelWithParams(buckets, capacity int, target, interval sim.Time) (*SfqCoDel, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("aqm: sfqCoDel needs at least one bucket, got %d", buckets)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("aqm: sfqCoDel capacity must be positive, got %d", capacity)
	}
	c, err := NewCoDelWithParams(capacity, target, interval)
	if err != nil {
		return nil, err
	}
	q := &SfqCoDel{
		buckets:  make([]*CoDel, buckets),
		template: *c,
		deficits: make([]int, buckets),
		inActive: make([]bool, buckets),
		quantum:  netsim.MTU,
		capacity: capacity,
	}
	q.template.SetDropHook(q.onBucketDrop)
	return q, nil
}

// newBucket creates bucket b's CoDel queue.
func (q *SfqCoDel) newBucket(b int) *CoDel {
	c := q.template
	q.buckets[b] = &c
	q.created = append(q.created, b)
	return &c
}

// onBucketDrop accounts one CoDel dequeue-time drop against the aggregate
// counters and forwards the packet to the external observer.
func (q *SfqCoDel) onBucketDrop(p *netsim.Packet) {
	q.drops++
	q.length--
	q.bytes -= p.Size
	if q.bytes < 0 {
		q.bytes = 0
	}
	if q.dropHook != nil {
		q.dropHook(p)
	}
}

// SetDropHook installs the dequeue-time drop observer.
func (q *SfqCoDel) SetDropHook(fn func(*netsim.Packet)) { q.dropHook = fn }

// bucketFor hashes a flow id onto a bucket. With far fewer flows than
// buckets (the common case) every flow gets its own queue, which is the
// behaviour the paper's experiments rely on.
func (q *SfqCoDel) bucketFor(flow int) int {
	h := uint64(flow) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(len(q.buckets)))
}

// Enqueue implements netsim.Queue.
//
//repo:hotpath per-packet flow-bucket admission
func (q *SfqCoDel) Enqueue(p *netsim.Packet, now sim.Time) bool {
	if q.length >= q.capacity {
		q.drops++
		return false
	}
	b := q.bucketFor(p.Flow)
	bucket := q.buckets[b]
	if bucket == nil {
		bucket = q.newBucket(b)
	}
	if !bucket.Enqueue(p, now) {
		q.drops++
		return false
	}
	q.length++
	q.bytes += p.Size
	if !q.inActive[b] {
		q.inActive[b] = true
		q.active.Push(b)
		q.deficits[b] = q.quantum
	}
	return true
}

// Dequeue implements netsim.Queue, serving buckets by deficit round robin
// and applying each bucket's CoDel drop law.
//
//repo:hotpath per-packet round-robin service
func (q *SfqCoDel) Dequeue(now sim.Time) *netsim.Packet {
	for q.active.Len() > 0 {
		b := q.active.Peek()
		bucket := q.buckets[b]
		if bucket.Len() == 0 {
			// Bucket drained; retire it from the active list.
			q.active.Pop()
			q.inActive[b] = false
			continue
		}
		if q.deficits[b] <= 0 {
			// Move to the back of the round and replenish the deficit.
			q.active.Push(q.active.Pop())
			q.deficits[b] += q.quantum
			continue
		}
		p := bucket.Dequeue(now)
		// CoDel's dequeue-time drops are accounted by onBucketDrop.
		if p == nil {
			q.active.Pop()
			q.inActive[b] = false
			continue
		}
		q.length--
		q.bytes -= p.Size
		if q.bytes < 0 {
			q.bytes = 0
		}
		q.deficits[b] -= p.Size
		return p
	}
	return nil
}

// Len implements netsim.Queue.
func (q *SfqCoDel) Len() int { return q.length }

// Bytes implements netsim.Queue.
func (q *SfqCoDel) Bytes() int { return q.bytes }

// Drops implements netsim.Queue.
func (q *SfqCoDel) Drops() int64 { return q.drops }

// Buckets returns the number of hash buckets.
func (q *SfqCoDel) Buckets() int { return len(q.buckets) }
