//nescheck:allow determinism the tracer stamps spans with host wall time by design; simulated time is read from trace.Recorder next to it

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"nestedenclave/internal/trace"
)

// spanName names a layer boundary the benchmark records a span around.
// Every span wraps one public call of the simulator made from the
// benchmark's own code.
type spanName uint8

const (
	spOp         spanName = iota // one benchmark op (a part of one, on outer-channel)
	spECall                      // sdk.Enclave.ECall
	spNOCall                     // sdk.Env.NOCall
	spSwitchless                 // sdk.Env.OCallAsync
	spAccess                     // sdk.Env.Write + Env.Read (the sgx access path)
	spTalloc                     // sdk.Env.Malloc or Env.Free (the trusted heap)
	spRewrite                    // sqldb.Parse/FormatStmt + literal encryption, result decryption
	spExec                       // sqldb.DB.Exec
	spLoad                       // sdk.Host.Load
	spNASSO                      // sdk.Host.Associate
	spSend                       // channel.OuterChannel.Send
	spRecv                       // channel.OuterChannel.Recv
	numSpans
)

var spanNames = [numSpans]string{
	spOp:         "op",
	spECall:      "sdk.ecall",
	spNOCall:     "sdk.nocall",
	spSwitchless: "switchless.ocall",
	spAccess:     "sgx.access",
	spTalloc:     "talloc",
	spRewrite:    "sqldb.rewrite",
	spExec:       "sqldb.exec",
	spLoad:       "sdk.load",
	spNASSO:      "core.nasso",
	spSend:       "channel.send",
	spRecv:       "channel.recv",
}

func (n spanName) String() string { return spanNames[n] }

// span is one completed span: host time in ns since the tracer started and
// simulated cycles on the machine's clock.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // -1 for a root
	Op       int64  `json:"op"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	StartCyc int64  `json:"start_cyc"`
	EndCyc   int64  `json:"end_cyc"`
}

type frame struct {
	name              spanName
	id                int32
	startNs, startCyc int64
	childNs, childCyc int64
}

// tracer records spans from the single client goroutine. A nil *tracer is
// the untraced mode: every method is a no-op. Self times (a span minus the
// part its children cover) are aggregated for every span; the spans
// themselves are kept in memory up to keep and written out at the end.
type tracer struct {
	rec   *trace.Recorder
	base  time.Time
	op    int64
	stack []frame
	next  int32
	keep  int
	spans []span

	count   [numSpans]int64
	selfNs  [numSpans]int64
	selfCyc [numSpans]int64
}

func newTracer(keep int) *tracer {
	return &tracer{base: time.Now(), keep: keep, spans: make([]span, 0, min(keep, 1<<16))}
}

// bind points the tracer at the recorder whose clock the next spans read.
func (t *tracer) bind(rec *trace.Recorder) {
	if t != nil {
		t.rec = rec
	}
}

// beginOp starts op id; its spans carry it.
func (t *tracer) beginOp(id int64) {
	if t == nil {
		return
	}
	t.op = id
	t.begin(spOp)
}

func (t *tracer) begin(n spanName) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{
		name: n, id: t.next,
		startNs: int64(time.Since(t.base)), startCyc: t.rec.Cycles(),
	})
	t.next++
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	endNs, endCyc := int64(time.Since(t.base)), t.rec.Cycles()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	durNs, durCyc := endNs-f.startNs, endCyc-f.startCyc
	t.count[f.name]++
	t.selfNs[f.name] += durNs - f.childNs
	t.selfCyc[f.name] += durCyc - f.childCyc
	parent := int32(-1)
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.childNs += durNs
		p.childCyc += durCyc
		parent = p.id
	}
	if len(t.spans) < t.keep {
		t.spans = append(t.spans, span{
			ID: f.id, Parent: parent, Op: t.op, Name: f.name.String(),
			StartNs: f.startNs, EndNs: endNs, StartCyc: f.startCyc, EndCyc: endCyc,
		})
	}
}

// selfUS is the mean self time of one n span in µs, 0 when none ran.
func (t *tracer) selfUS(n spanName) float64 {
	if t.count[n] == 0 {
		return 0
	}
	return float64(t.selfNs[n]) / float64(t.count[n]) / 1e3
}

// selfCycles is the mean simulated self time of one n span.
func (t *tracer) selfCycles(n spanName) float64 {
	if t.count[n] == 0 {
		return 0
	}
	return float64(t.selfCyc[n]) / float64(t.count[n])
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
