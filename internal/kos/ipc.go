package kos

import (
	"sync"

	"nestedenclave/internal/chaos"
)

// IPCService is the OS-provided inter-process/inter-enclave message channel
// — the communication path the current SGX model forces peer enclaves onto.
//
// Because the kernel implements it, the kernel is an active man in the
// middle. The adversary knobs reproduce the Panoply-style attacks the paper
// discusses in §VII-B: the OS "can drop an IPC request selectively or create
// a fake or old message", and it can read any plaintext that crosses the
// channel. Enclaves defending themselves here must layer authenticated
// encryption on top (package channel's GCMChannel); nested enclaves instead
// route messages through outer-enclave memory the kernel cannot touch.
type IPCService struct {
	k  *Kernel
	mu sync.Mutex

	queues map[string][]Message
	seen   map[string][]Message // everything ever sent: the kernel's log

	adversary map[string]*IPCAdversary
}

// Message is one IPC datagram as the kernel stores it.
type Message struct {
	Payload []byte
}

// IPCAdversary configures active attacks on one channel.
type IPCAdversary struct {
	// DropNext counts messages to silently discard.
	DropNext int
	// DropIf selectively discards matching messages (e.g. "the
	// initialization call"), leaving others through.
	DropIf func(payload []byte) bool
	// ReplayLast re-delivers the previously seen message instead of the
	// fresh one.
	ReplayLast bool
	// Forge, when non-nil, is delivered in place of each sent message.
	Forge func(payload []byte) []byte
	// Scramble, when non-nil, takes over delivery entirely: full
	// man-in-the-middle control over ordering, withholding, and replay.
	// It receives the kernel's log of every payload ever sent on the
	// channel, the currently queued payloads, and the payload being
	// delivered, and returns the queue to install (typically the old queue
	// plus incoming, reordered, trimmed, or salted with replayed log
	// entries). The chaos layer is bypassed for scrambled channels — the
	// adversary's delivery decision is final and deterministic.
	Scramble func(log, queue [][]byte, incoming []byte) [][]byte
}

// NewIPCService creates the kernel's IPC router.
func NewIPCService(k *Kernel) *IPCService {
	return &IPCService{
		k:         k,
		queues:    make(map[string][]Message),
		seen:      make(map[string][]Message),
		adversary: make(map[string]*IPCAdversary),
	}
}

// SetAdversary installs attack behaviour on a channel.
func (s *IPCService) SetAdversary(channel string, a *IPCAdversary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adversary[channel] = a
}

// Send enqueues a message on the named channel, subject to the adversary.
func (s *IPCService) Send(channel string, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := append([]byte(nil), payload...)
	s.seen[channel] = append(s.seen[channel], Message{Payload: cp})
	if a := s.adversary[channel]; a != nil {
		if a.DropNext > 0 {
			a.DropNext--
			return
		}
		if a.DropIf != nil && a.DropIf(cp) {
			return
		}
		if a.Forge != nil {
			cp = append([]byte(nil), a.Forge(cp)...)
		}
		if a.ReplayLast {
			log := s.seen[channel]
			if len(log) >= 2 {
				cp = append([]byte(nil), log[len(log)-2].Payload...)
			}
		}
		if a.Scramble != nil {
			log := make([][]byte, 0, len(s.seen[channel]))
			for _, m := range s.seen[channel] {
				log = append(log, append([]byte(nil), m.Payload...))
			}
			queue := make([][]byte, 0, len(s.queues[channel]))
			for _, m := range s.queues[channel] {
				queue = append(queue, append([]byte(nil), m.Payload...))
			}
			next := a.Scramble(log, queue, cp)
			q := make([]Message, 0, len(next))
			for _, p := range next {
				q = append(q, Message{Payload: append([]byte(nil), p...)})
			}
			s.queues[channel] = q
			return
		}
	}
	// Runtime fault injection: the unreliable-transport behaviours real IPC
	// exhibits under load. These compose with (and run after) the adversary,
	// which models deliberate attacks.
	if inj := s.k.chaos; inj != nil {
		if inj.Fire(chaos.SiteIPCDrop) {
			return
		}
		if inj.Fire(chaos.SiteIPCCorrupt) && len(cp) > 0 {
			bit := inj.Rand(uint64(len(cp) * 8))
			cp[bit/8] ^= 1 << (bit % 8)
		}
		if inj.Fire(chaos.SiteIPCDup) {
			s.queues[channel] = append(s.queues[channel], Message{Payload: append([]byte(nil), cp...)})
		}
	}
	s.queues[channel] = append(s.queues[channel], Message{Payload: cp})
}

// TryRecv dequeues the next message, if any.
func (s *IPCService) TryRecv(channel string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[channel]
	if len(q) == 0 {
		return nil, false
	}
	msg := q[0]
	s.queues[channel] = q[1:]
	return msg.Payload, true
}

// Eavesdrop returns the kernel's log of every payload sent on the channel —
// the OS can always read what crosses its own IPC path.
func (s *IPCService) Eavesdrop(channel string) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, 0, len(s.seen[channel]))
	for _, m := range s.seen[channel] {
		out = append(out, append([]byte(nil), m.Payload...))
	}
	return out
}

// Pending reports the queue depth (tests).
func (s *IPCService) Pending(channel string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queues[channel])
}
