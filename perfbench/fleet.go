//nescheck:allow determinism ops are timed with host wall time by design; simulated time is read from trace.Recorder next to it

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nestedenclave/internal/bench"
	"nestedenclave/internal/cache"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
)

// fleet-load is the nested configuration of Fig. 10: a fleet of small app
// inner enclaves sharing a few SSL outer enclaves in one host process. One
// op loads one enclave (Host.Load) from an image signed during set-up and,
// for an app, associates it with an outer already loaded (Host.Associate).
// Every round loads the whole fleet into a freshly booted rig.

type fleetConfig struct {
	Apps       int // app inner enclaves per fleet
	Outers     int // SSL outer enclaves per fleet
	OuterPages int // code+data pages of an outer
	Warmup     int // apps of the untimed warm-up fleet
}

var fleetDefault = fleetConfig{Apps: 1000, Outers: 4, OuterPages: 32, Warmup: 50}

// fleetAppCode holds the code-page counts of the app variants. Every block
// of four apps has one of each in a seeded order, so a fleet's EPC
// footprint is the same for every seed. With one data, one heap and one TCS
// page, apps are 6, 8, 8 and 10 pages: 8 on average.
var fleetAppCode = []int{3, 5, 5, 7}

type fleetOp struct {
	outer  bool
	img    *sdk.SignedImage
	target int // index of the outer an app associates with
}

type fleet struct {
	seed int64
	cfg  fleetConfig
	plan []fleetOp

	rig          *bench.Rig
	apps, outers []*sdk.Enclave
	added        int // EPC pages the last round added
}

func newFleet(seed int64, cfg fleetConfig) *fleet { return &fleet{seed: seed, cfg: cfg} }

func (w *fleet) close() { w.rig, w.apps, w.outers = nil, nil, nil }

// fleetMachine sizes the EPC to hold the whole fleet, as Fig. 10 does.
func fleetMachine(cfg fleetConfig) sgx.Config {
	pages := cfg.Apps*(8+1) + cfg.Outers*(cfg.OuterPages+4) + 1024
	prm := (uint64(pages)*isa.PageSize + (1<<22 - 1)) &^ (1<<22 - 1)
	return sgx.Config{
		Cores: 4,
		Phys:  phys.Layout{DRAMSize: prm + (32 << 20), PRMBase: 32 << 20, PRMSize: prm},
		LLC:   cache.DefaultConfig(),
	}
}

// slot spreads ELRANGEs over the address space, one fixed-stride slot each.
func fleetSlot(cfg fleetConfig, i int) isa.VAddr {
	stride := uint64(cfg.OuterPages+64) * isa.PageSize
	return isa.VAddr(0x10_0000_0000 + uint64(i)*stride)
}

func fleetOuterImage(cfg fleetConfig, base isa.VAddr) *sdk.Image {
	l := sdk.Layout{CodePages: cfg.OuterPages * 3 / 4, DataPages: cfg.OuterPages / 4, HeapPages: 2, NumTCS: 2}
	img := sdk.NewImage("ssl", base, l)
	img.RegisterNOCall("ssl_write", func(env *sdk.Env, args []byte) ([]byte, error) { return args, nil })
	return img
}

func fleetAppImage(code int, base isa.VAddr) *sdk.Image {
	img := sdk.NewImage(fmt.Sprintf("app-%d", code), base, sdk.Layout{CodePages: code, DataPages: 1, HeapPages: 1, NumTCS: 1})
	img.RegisterECall("serve", func(env *sdk.Env, args []byte) ([]byte, error) { return args, nil })
	return img
}

// makePlan builds and signs the seeded op stream: outer 0 first, each later
// outer at a seeded position in its quarter of the stream, apps of seeded
// sizes in between, each associating with a seeded, already loaded outer.
func (w *fleet) makePlan(apps int) []fleetOp {
	cfg := w.cfg
	rng := rand.New(rand.NewSource(w.seed))
	author := measure.MustNewAuthor()
	var appDigests []measure.Digest
	for _, code := range []int{3, 5, 7} {
		appDigests = append(appDigests, fleetAppImage(code, 0).Measure())
	}
	outerDigest := fleetOuterImage(cfg, 0).Measure()

	n := apps + cfg.Outers
	outerAt := map[int]bool{0: true}
	for k := 1; k < cfg.Outers; k++ {
		outerAt[k*n/cfg.Outers+rng.Intn(n/cfg.Outers/2)] = true
	}
	block := append([]int(nil), fleetAppCode...)
	plan := make([]fleetOp, 0, n)
	outers := 0
	for i := 0; i < n; i++ {
		base := fleetSlot(cfg, i)
		if outerAt[i] {
			img := fleetOuterImage(cfg, base)
			plan = append(plan, fleetOp{outer: true, img: img.Sign(author, nil, appDigests)})
			outers++
			continue
		}
		j := len(plan) - outers
		if j%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		img := fleetAppImage(block[j%len(block)], base)
		plan = append(plan, fleetOp{img: img.Sign(author, []measure.Digest{outerDigest}, nil), target: rng.Intn(outers)})
	}
	return plan
}

func (w *fleet) setup() error {
	// Warm up on a small fleet of the same shape, then sign the real one.
	w.plan = w.makePlan(w.cfg.Warmup)
	if err := w.round(&roundCtx{p: &phase{}}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.plan = w.makePlan(w.cfg.Apps)
	return nil
}

func (w *fleet) round(rc *roundCtx) error {
	// Untimed reset: drop the previous fleet, collect it, boot a new rig.
	w.close()
	runtime.GC()
	rig, err := bench.NewRig(fleetMachine(w.cfg))
	if err != nil {
		return err
	}
	w.rig = rig
	rec := rig.M.Rec
	used0 := rig.M.EPC.NumPages() - rig.M.EPC.FreePages()
	want := 0

	rc.beginTimed(rec)
	for _, op := range w.plan {
		c0, t0 := rec.Cycles(), time.Now()
		rc.tr.beginOp(rc.p.ops)
		rc.tr.begin(spLoad)
		e, err := rig.Host.Load(op.img)
		rc.tr.end()
		if err == nil && !op.outer {
			if op.target >= len(w.outers) {
				err = fmt.Errorf("outer %d was not loaded", op.target)
			} else {
				rc.tr.begin(spNASSO)
				err = rig.Host.Associate(e, w.outers[op.target])
				rc.tr.end()
			}
		}
		rc.tr.end()
		ns, cyc := int64(time.Since(t0)), rec.Cycles()-c0
		if err == nil {
			want += op.img.Image.TotalPages() + 1 // and the SECS page
			if op.outer {
				w.outers = append(w.outers, e)
			} else {
				w.apps = append(w.apps, e)
			}
		}
		rc.moved(op.img.Image.TotalPages() * isa.PageSize)
		rc.op(ns, cyc, err == nil)
	}
	rc.endTimed()

	// The EPC must hold exactly the fleet's pages, and every app must answer.
	used := rig.M.EPC.NumPages() - rig.M.EPC.FreePages()
	w.added = used - used0
	if w.added != want {
		rc.fail(int64(len(w.plan)))
	}
	for i, app := range w.apps {
		msg := []byte(fmt.Sprintf("serve %d", i))
		if out, err := app.ECall("serve", msg); err != nil || !bytes.Equal(out, msg) {
			rc.fail(1)
		}
	}
	return nil
}

func (w *fleet) gauges() map[string]float64 {
	return map[string]float64{
		"pt.entries":      float64(w.rig.Host.Proc.PageTable().Len()),
		"epc.used_pages":  float64(w.rig.M.EPC.NumPages() - w.rig.M.EPC.FreePages()),
		"sgx.pages_added": float64(w.added),
	}
}
