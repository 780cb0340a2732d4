package channel

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"

	"nestedenclave/internal/chaos"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/trace"
)

// ReliableChannel layers sequence-gap detection and bounded retransmission
// over the encrypted IPC path, closing GCMChannel's residual weakness: a
// silently dropped message is no longer indistinguishable from "nothing sent
// yet". Each frame carries its sequence number in clear (the kernel must be
// able to route it; integrity comes from binding it into the AEAD nonce and
// authenticating the channel name), the sender keeps a bounded window of
// sent frames for retransmission, and the receiver detects duplicates,
// gaps, and corruption, asking the sender to resend exactly what is missing.
type ReliableChannel struct {
	ipc  *kos.IPCService
	name string
	aead cipher.AEAD

	sendSeq uint64
	recvSeq uint64

	// window holds recently sent frames (ciphertext) for retransmission,
	// bounded to winSize entries.
	window  map[uint64][]byte
	winSize int

	// stash holds authenticated frames that arrived ahead of a gap.
	stash map[uint64][]byte

	// chaos, when set, is credited a recovery each time a repair loop
	// cures an injected drop/corruption/duplicate.
	chaos *chaos.Injector

	// rec, when set (Trace), opens a span per send/receive/retransmit, so
	// kernel-level IPC fault injections — which fire inside ipc.Send, below
	// any core context — attach to the channel operation that carried them,
	// and a repaired gap shows its retransmits nested inside the receive.
	rec *trace.Recorder
}

// NewReliable creates an endpoint. Both ends construct it with the same name
// and key (established out of band, e.g. via local attestation). window
// bounds the retransmit buffer (0 → 64 frames).
func NewReliable(ipc *kos.IPCService, name string, key [16]byte, window int) (*ReliableChannel, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if window <= 0 {
		window = 64
	}
	return &ReliableChannel{
		ipc:     ipc,
		name:    name,
		aead:    aead,
		window:  make(map[uint64][]byte),
		winSize: window,
		stash:   make(map[uint64][]byte),
	}, nil
}

// SetChaos attributes repaired faults to the injector's IPC sites.
func (ch *ReliableChannel) SetChaos(inj *chaos.Injector) { ch.chaos = inj }

// Trace opens spans for channel operations on the recorder (nil disables).
func (ch *ReliableChannel) Trace(rec *trace.Recorder) { ch.rec = rec }

// beginSpan opens a machine-global span when tracing is on; the zero SpanRef
// otherwise (its End is a no-op).
func (ch *ReliableChannel) beginSpan(op string) trace.SpanRef {
	if ch.rec == nil {
		return trace.SpanRef{}
	}
	return ch.rec.BeginSpan(trace.NoCore, trace.NoEID, op+":"+ch.name)
}

// GapError reports a detected loss: the receiver needs frame Want but saw
// frame Got (Corrupt marks an authentication failure instead of a skip).
// It is transient — a retransmit cures it.
type GapError struct {
	Channel string
	Want    uint64
	Got     uint64
	Corrupt bool
}

func (e *GapError) Error() string {
	if e.Corrupt {
		return fmt.Sprintf("channel %s: frame %d failed authentication (corrupted in flight)", e.Channel, e.Want)
	}
	return fmt.Sprintf("channel %s: sequence gap: want %d, got %d (dropped in flight)", e.Channel, e.Want, e.Got)
}

// Is classifies gaps as transient for retry policies.
func (e *GapError) Is(target error) bool { return target == chaos.ErrTransient }

// ErrReplayDetected is the sentinel for *adversarial* channel failures: a
// frame replayed from beyond the retransmit window, or a reorder so deep the
// missing frame can no longer be retransmitted. Unlike a GapError these are
// NOT transient — an honest kernel under loss can only produce disorder
// within the bounded window, so anything beyond it is a malicious router and
// retrying against it would hand the attacker unlimited tries. RetryPolicy
// therefore fails fast on this sentinel.
var ErrReplayDetected = errors.New("channel: replay detected")

// ReplayError reports an adversarial frame: Seq is the offending (replayed or
// unrecoverably missing) sequence number, Latest the stream position that
// proves it cannot be honest traffic. Reorder distinguishes the
// deep-reorder case (the missing frame fell out of the sender's retransmit
// window) from a straight replay of long-delivered traffic.
type ReplayError struct {
	Channel string
	Seq     uint64
	Latest  uint64
	Reorder bool
}

func (e *ReplayError) Error() string {
	if e.Reorder {
		return fmt.Sprintf("channel %s: frame %d reordered beyond the retransmit bound (stream at %d): replay attack suspected", e.Channel, e.Seq, e.Latest)
	}
	return fmt.Sprintf("channel %s: frame %d replayed from beyond the retransmit window (stream at %d)", e.Channel, e.Seq, e.Latest)
}

// Is marks replays as detected attacks — and deliberately NOT transient.
func (e *ReplayError) Is(target error) bool { return target == ErrReplayDetected }

// frame is [8-byte LE seq || AES-GCM(payload, nonce=seq, AAD=name)].
// When tracing is on, the software-crypto cost model charges one GCM seal
// over the payload.
func (ch *ReliableChannel) seal(seq uint64, payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload)+16)
	binary.LittleEndian.PutUint64(out, seq)
	if ch.rec != nil {
		ch.rec.Advance(trace.GCMCycles(len(payload)))
	}
	return ch.aead.Seal(out, gcmNonce(seq), payload, []byte(ch.name))
}

// Send seals the payload under the next sequence number, records the frame
// in the retransmit window, and hands it to the kernel.
func (ch *ReliableChannel) Send(payload []byte) {
	sp := ch.beginSpan("chan_send")
	defer sp.End()
	frame := ch.seal(ch.sendSeq, payload)
	ch.window[ch.sendSeq] = frame
	delete(ch.window, ch.sendSeq-uint64(ch.winSize))
	ch.sendSeq++
	ch.ipc.Send(ch.name, frame)
}

// Retransmit resends the frame with the given sequence number from the
// window. It fails if the frame has already been evicted.
func (ch *ReliableChannel) Retransmit(seq uint64) error {
	sp := ch.beginSpan("chan_retransmit")
	defer sp.End()
	frame, ok := ch.window[seq]
	if !ok {
		return fmt.Errorf("channel %s: frame %d no longer in retransmit window", ch.name, seq)
	}
	ch.ipc.Send(ch.name, frame)
	return nil
}

// Recv dequeues the next in-order message. Duplicates are silently dropped
// (crediting the dup fault site); a gap or corrupted frame returns a
// *GapError naming the missing sequence number so the caller can request a
// retransmit (see RecvRepaired).
func (ch *ReliableChannel) Recv() (payload []byte, ok bool, err error) {
	for {
		// A previously stashed out-of-order frame may now be next in line.
		if pt, hit := ch.stash[ch.recvSeq]; hit {
			delete(ch.stash, ch.recvSeq)
			ch.recvSeq++
			return pt, true, nil
		}
		raw, got := ch.ipc.TryRecv(ch.name)
		if !got {
			return nil, false, nil
		}
		if len(raw) < 8 {
			return nil, true, &GapError{Channel: ch.name, Want: ch.recvSeq, Corrupt: true}
		}
		seq := binary.LittleEndian.Uint64(raw)
		// The open runs over the whole ciphertext before authentication can
		// fail, so its cost is charged unconditionally when tracing is on.
		if ch.rec != nil {
			ch.rec.Advance(trace.GCMCycles(len(raw) - 8))
		}
		pt, aerr := ch.aead.Open(nil, gcmNonce(seq), raw[8:], []byte(ch.name))
		if aerr != nil {
			// The claimed sequence number is untrustworthy (the corruption
			// may have hit it), so ask for the next frame we actually
			// need; a mangled future frame will resurface as a gap later.
			return nil, true, &GapError{Channel: ch.name, Want: ch.recvSeq, Corrupt: true}
		}
		switch {
		case seq < ch.recvSeq:
			// An honest retransmit or duplicated frame can lag the stream by
			// at most the retransmit window. Anything older is a replay of
			// long-delivered traffic — an attack, not noise.
			if ch.recvSeq-seq > uint64(ch.winSize) {
				return nil, true, &ReplayError{Channel: ch.name, Seq: seq, Latest: ch.recvSeq}
			}
			// Duplicate of an already-delivered frame: drop and keep going.
			ch.chaos.Recovered(chaos.SiteIPCDup)
			continue
		case seq > ch.recvSeq:
			// Arrived ahead of a gap: stash it, report the missing frame.
			ch.stash[seq] = pt
			return nil, true, &GapError{Channel: ch.name, Want: ch.recvSeq, Got: seq}
		default:
			ch.recvSeq++
			return pt, true, nil
		}
	}
}

// RecvRepaired is Recv driving the repair loop against the sending endpoint:
// on a gap or corruption it asks sender to retransmit the missing frame and
// retries, up to maxRepairs times. Successful repairs credit the drop or
// corruption fault site.
func (ch *ReliableChannel) RecvRepaired(sender *ReliableChannel, maxRepairs int) (payload []byte, ok bool, err error) {
	sp := ch.beginSpan("chan_recv")
	defer sp.End()
	if maxRepairs <= 0 {
		maxRepairs = 8
	}
	for attempt := 0; ; attempt++ {
		pt, got, rerr := ch.Recv()
		if rerr == nil {
			if attempt > 0 && got {
				site := chaos.SiteIPCDrop
				if ge, isGap := err.(*GapError); isGap && ge.Corrupt {
					site = chaos.SiteIPCCorrupt
				}
				ch.chaos.Recovered(site)
			}
			return pt, got, nil
		}
		ge, isGap := rerr.(*GapError)
		if !isGap || attempt >= maxRepairs {
			return nil, got, rerr
		}
		err = rerr
		if terr := sender.Retransmit(ge.Want); terr != nil {
			if ge.Corrupt {
				// The mangled frame was likely a stale duplicate whose
				// corrupted sequence field pointed past the stream; it
				// has been consumed, so just keep receiving.
				continue
			}
			// The missing frame fell out of the sender's retransmit window:
			// the stream was reordered deeper than any honest kernel could
			// manage. Classify as a detected attack so retries fail fast.
			return nil, got, &ReplayError{Channel: ch.name, Seq: ge.Want, Latest: sender.sendSeq, Reorder: true}
		}
	}
}
