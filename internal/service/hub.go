package service

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// hubEvent is one SSE payload: a named event with pre-marshaled JSON data,
// serialized once no matter how many subscribers receive it, plus the
// topic-scoped sequence number the SSE layer emits as the event id.
type hubEvent struct {
	Type string // SSE event name: progress | sample | status | done
	ID   uint64 // per-topic sequence number (1-based)
	Data []byte
}

// Hub fans live events out to SSE subscribers. Topics are keyed by config
// fingerprint, not job ID: when several jobs join one deduplicated run, the
// single executing simulation feeds every subscriber, whichever job they
// arrived through. Slow subscribers never block the simulation — a full
// subscriber buffer drops the event and counts it.
//
// Every published event gets the topic's next sequence number, whether or not
// anyone is subscribed, so a client that reconnects with Last-Event-ID can
// compare against the topic's current sequence and learn exactly how many
// events it missed (to drops, overflow, or plain disconnection).
type Hub struct {
	mu      sync.Mutex
	topics  map[string]map[*Subscription]struct{}
	seqs    map[string]uint64
	dropped atomic.Uint64
}

// Subscription is one subscriber's buffered feed.
type Subscription struct {
	C   <-chan hubEvent
	ch  chan hubEvent
	hub *Hub
	key string
}

// subscriberBuffer bounds each subscriber's in-flight events.
const subscriberBuffer = 128

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{
		topics: make(map[string]map[*Subscription]struct{}),
		seqs:   make(map[string]uint64),
	}
}

// Subscribe attaches a new subscriber to key's feed.
func (h *Hub) Subscribe(key string) *Subscription {
	sub := &Subscription{ch: make(chan hubEvent, subscriberBuffer), hub: h, key: key}
	sub.C = sub.ch
	h.mu.Lock()
	t := h.topics[key]
	if t == nil {
		t = make(map[*Subscription]struct{})
		h.topics[key] = t
	}
	t[sub] = struct{}{}
	h.mu.Unlock()
	return sub
}

// Close detaches the subscriber; its channel stops receiving but is not
// closed (the SSE handler exits on its own signals).
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	if t, ok := h.topics[s.key]; ok {
		delete(t, s)
		if len(t) == 0 {
			delete(h.topics, s.key)
		}
	}
	h.mu.Unlock()
}

// Seq reports key's current (last assigned) sequence number.
func (h *Hub) Seq(key string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seqs[key]
}

// Publish marshals payload once, stamps it with key's next sequence number,
// and fans it out to key's subscribers. A subscriber whose buffer is full
// loses its OLDEST buffered event (counted in dropped_events), not the new
// one: for progress feeds the newest snapshot supersedes the stale backlog,
// and a stalled subscriber that resumes reading catches up to the present
// instead of replaying history and missing the terminal event.
func (h *Hub) Publish(key, typ string, payload any) {
	h.mu.Lock()
	h.seqs[key]++
	seq := h.seqs[key]
	t := h.topics[key]
	if len(t) == 0 {
		h.mu.Unlock()
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		h.mu.Unlock()
		return
	}
	ev := hubEvent{Type: typ, ID: seq, Data: data}
	for sub := range t {
		for {
			select {
			case sub.ch <- ev:
			default:
				// Full: evict the oldest and retry. The receive can miss if
				// the subscriber drained concurrently — then the send wins on
				// the next spin.
				select {
				case <-sub.ch:
					h.dropped.Add(1)
				default:
				}
				continue
			}
			break
		}
	}
	h.mu.Unlock()
}

// Dropped reports how many events were discarded on full subscriber buffers.
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }
