//nescheck:allow determinism ops are timed with host wall time by design; simulated time is read from trace.Recorder next to it

package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nestedenclave/internal/bench"
	"nestedenclave/internal/channel"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// outer-channel is the MEE path of Fig. 11: two inner enclaves share one
// outer enclave, and the sender enqueues messages into a channel.OuterChannel
// ring in the outer's heap that the receiver dequeues. A window fills the
// ring until it reports full, then drains it; the ring is larger than the
// 8 MiB LLC, so messages are written back through the MEE and fetched back
// through it. One op is one message: its send ECall plus its recv ECall.

type channelConfig struct {
	RingBytes    uint64 // data area of the ring
	HeapPages    int    // outer heap pages; the ring lives at the heap base
	MinRoundMsgs int    // a round is whole windows of at least this many messages
}

var channelDefault = channelConfig{RingBytes: 32 << 20, HeapPages: 8320, MinRoundMsgs: 1000}

// channelSizes is the message-size mix: every block of four messages holds
// one 256 B, two 4 KiB and one 64 KiB message in a seeded order.
var channelSizes = []int{256, 4096, 4096, 65536}

// msgGen yields the seeded message stream: sizes from channelSizes, bytes
// cut from a seeded pool at seeded offsets.
type msgGen struct {
	rng   *rand.Rand
	pool  []byte
	block []int
	n     int
}

func newMsgGen(seed int64) *msgGen {
	g := &msgGen{rng: rand.New(rand.NewSource(seed)), pool: make([]byte, 256<<10), block: append([]int(nil), channelSizes...)}
	g.rng.Read(g.pool)
	return g
}

func (g *msgGen) next() []byte {
	if g.n%len(g.block) == 0 {
		g.rng.Shuffle(len(g.block), func(a, b int) { g.block[a], g.block[b] = g.block[b], g.block[a] })
	}
	size := g.block[g.n%len(g.block)]
	g.n++
	off := g.rng.Intn(len(g.pool) - size + 1)
	return g.pool[off : off+size]
}

var errEmpty = errors.New("channel empty")

type outerChannel struct {
	seed int64
	cfg  channelConfig
	tr   *tracer

	rig              *bench.Rig
	sender, receiver *sdk.Enclave
	gen              *msgGen
	pending          inFlight // the message a full ring refused

	sends, fulls int64 // send attempts and full refusals of the round
	fullRatio    float64
}

func newOuterChannel(seed int64, cfg channelConfig) *outerChannel {
	return &outerChannel{seed: seed, cfg: cfg}
}

func (w *outerChannel) close() { w.rig, w.sender, w.receiver = nil, nil, nil }

func (w *outerChannel) setup() error {
	rig, err := bench.NewRig(sgx.DefaultConfig())
	if err != nil {
		return err
	}
	outerImg := sdk.NewImage("ch-outer", 0x2000_0000, sdk.Layout{CodePages: 4, DataPages: 4, HeapPages: w.cfg.HeapPages, NumTCS: 2})
	sendImg := sdk.NewImage("ch-send", 0x1000_0000, sdk.DefaultLayout())
	recvImg := sdk.NewImage("ch-recv", 0x4000_0000, sdk.DefaultLayout())
	ch, err := channel.NewOuter(outerImg.HeapBase(), w.cfg.RingBytes)
	if err != nil {
		return err
	}
	if ch.Footprint() > outerImg.HeapSize() {
		return fmt.Errorf("ring of %d bytes does not fit the outer heap", ch.Footprint())
	}
	outerImg.RegisterECall("init", func(env *sdk.Env, _ []byte) ([]byte, error) {
		return nil, ch.Init(env.C)
	})
	sendImg.RegisterECall("send", func(env *sdk.Env, msg []byte) ([]byte, error) {
		w.tr.begin(spSend)
		ok, err := ch.Send(env.C, msg)
		w.tr.end()
		if err != nil || !ok {
			return nil, err
		}
		return []byte{1}, nil
	})
	recvImg.RegisterECall("recv", func(env *sdk.Env, _ []byte) ([]byte, error) {
		w.tr.begin(spRecv)
		msg, ok, err := ch.Recv(env.C)
		w.tr.end()
		if err == nil && !ok {
			err = errEmpty
		}
		return msg, err
	})

	author := measure.MustNewAuthor()
	outerDigest := outerImg.Measure()
	outer, err := rig.Host.Load(outerImg.Sign(author, nil, []measure.Digest{sendImg.Measure(), recvImg.Measure()}))
	if err != nil {
		return err
	}
	for _, p := range []struct {
		img *sdk.Image
		e   **sdk.Enclave
	}{{sendImg, &w.sender}, {recvImg, &w.receiver}} {
		if *p.e, err = rig.Host.Load(p.img.Sign(author, []measure.Digest{outerDigest}, nil)); err != nil {
			return err
		}
		if err := rig.Host.Associate(*p.e, outer); err != nil {
			return err
		}
	}
	if _, err := outer.ECall("init", nil); err != nil {
		return err
	}
	w.rig, w.gen, w.pending = rig, newMsgGen(w.seed), inFlight{}
	// Warm up: one untimed window, so the LLC is in its steady state.
	return w.round(&roundCtx{p: &phase{}})
}

type inFlight struct {
	msg     []byte
	ns, cyc int64 // the message's send ECalls, a refused one included
	err     error
}

// window fills the ring until it refuses a message, then drains it. The
// refused message opens the next window; its refused send counts towards
// its op. Op ids number the messages of the phase.
func (w *outerChannel) window(rc *roundCtx) (int64, error) {
	rec := w.rig.M.Rec
	var sent []inFlight
	for {
		f := w.pending
		if f.msg == nil {
			f = inFlight{msg: w.gen.next()}
		}
		t0, c0 := time.Now(), rec.Cycles()
		rc.tr.beginOp(rc.p.ops + int64(len(sent)))
		rc.tr.begin(spECall)
		out, err := w.sender.ECall("send", f.msg)
		rc.tr.end()
		rc.tr.end()
		f.ns += int64(time.Since(t0))
		f.cyc += rec.Cycles() - c0
		f.err = err
		w.sends++
		if err == nil && len(out) == 0 {
			w.fulls++
			w.pending = f
			break
		}
		w.pending = inFlight{}
		sent = append(sent, f)
	}
	if len(sent) == 0 {
		return 0, fmt.Errorf("the ring refused a %d-byte message while empty", len(w.pending.msg))
	}
	for _, f := range sent {
		t0, c0 := time.Now(), rec.Cycles()
		rc.tr.beginOp(rc.p.ops)
		rc.tr.begin(spECall)
		got, err := w.receiver.ECall("recv", nil)
		rc.tr.end()
		rc.tr.end()
		ns, cyc := int64(time.Since(t0)), rec.Cycles()-c0
		rc.moved(len(f.msg))
		rc.op(f.ns+ns, f.cyc+cyc, f.err == nil && err == nil && bytes.Equal(got, f.msg))
	}
	return int64(len(sent)), nil
}

func (w *outerChannel) round(rc *roundCtx) error {
	runtime.GC()
	w.tr = rc.tr
	defer func() { w.tr = nil }()
	w.sends, w.fulls = 0, 0
	rc.beginTimed(w.rig.M.Rec)
	var msgs int64
	for msgs < int64(w.cfg.MinRoundMsgs) {
		n, err := w.window(rc)
		if err != nil {
			return err
		}
		msgs += n
	}
	rc.endTimed()
	w.fullRatio = float64(w.fulls) / float64(w.sends)
	return nil
}

func (w *outerChannel) gauges() map[string]float64 {
	return map[string]float64{
		"channel.full_ratio": w.fullRatio,
		"pt.entries":         float64(w.rig.Host.Proc.PageTable().Len()),
		"epc.used_pages":     float64(w.rig.M.EPC.NumPages() - w.rig.M.EPC.FreePages()),
	}
}
