package machine

import (
	"fmt"

	"flashfc/internal/coherence"
	"flashfc/internal/magic"
	"flashfc/internal/proc"
	"flashfc/internal/sim"
)

// VerifyResult is the outcome of the §5.2 post-recovery memory sweep: every
// line in the system must either hold its last committed value, be reported
// incoherent (bus error) only if it may legitimately have been lost, or —
// when its home node is gone — fail with a bus error from the node map.
type VerifyResult struct {
	LinesChecked   int
	CorrectData    int
	Incoherent     int              // bus errors on lines whose loss is justified
	InaccessibleOK int              // bus errors on lines homed on dead nodes
	WrongData      []coherence.Addr // returned data != last committed value
	OverMarked     []coherence.Addr // bus error without a justifying loss
	MissingBusErr  []coherence.Addr // dead-home line that returned data
	Pending        int              // reads that never completed (harness error)
}

// OK reports whether the sweep found no anomalies.
func (v *VerifyResult) OK() bool {
	return len(v.WrongData) == 0 && len(v.OverMarked) == 0 &&
		len(v.MissingBusErr) == 0 && v.Pending == 0
}

func (v *VerifyResult) String() string {
	return fmt.Sprintf("verify{checked=%d correct=%d incoherent=%d inaccessible=%d wrong=%d overmarked=%d missingBE=%d pending=%d}",
		v.LinesChecked, v.CorrectData, v.Incoherent, v.InaccessibleOK,
		len(v.WrongData), len(v.OverMarked), len(v.MissingBusErr), v.Pending)
}

// VerifyMemory sweeps every line of the system's memory from the reader
// node, driving the simulation to completion. stride selects every
// stride-th line (1 = full sweep) so large configurations stay tractable.
//
// Every line is read through the full coherence protocol: the readback is
// the §5.2 check itself. The lines issue in cursor order (home by home,
// ascending address) from one place in the reader's issue queue, and a
// read aborted by a concurrent recovery is resubmitted at the queue's
// tail, behind the rest of the sweep.
func (m *Machine) VerifyMemory(reader int, stride int) *VerifyResult {
	if stride < 1 {
		stride = 1
	}
	s := &sweep{
		m:      m,
		res:    &VerifyResult{},
		cpu:    m.Nodes[reader].CPU,
		ctrl:   m.Nodes[reader].Ctrl,
		stride: stride,
		lines:  int(m.Cfg.MemBytes / 128),
	}
	n := m.Cfg.Nodes * ((s.lines + stride - 1) / stride)
	s.res.LinesChecked = n
	s.res.Pending = n
	s.cpu.SubmitN(n, s.next)
	// Drive the simulation until the sweep completes. The drain is
	// bounded: a wedged controller can keep generating retry events
	// forever, and the sweep must terminate regardless.
	deadline := m.Now() + 30*sim.Second
	for s.res.Pending > 0 && s.cpu.Inflight()+s.cpu.QueueLen() > 0 && m.Now() < deadline {
		m.Advance(m.Now() + sim.Millisecond)
	}
	m.Advance(m.Now() + 10*sim.Millisecond)
	return s.res
}

// sweep is a readback in progress: a cursor over the lines still to issue
// and a free list of read records. A record's completion is bound once,
// when the record is minted, so a read costs no allocation; at most a CPU
// window of records (plus aborted reads waiting to reissue) exist.
type sweep struct {
	m      *Machine
	res    *VerifyResult
	cpu    *proc.CPU
	ctrl   *magic.Controller
	stride int
	lines  int // lines per node
	home   int // cursor: the next line is line li of node home
	li     int
	free   []*sweepRead
}

type sweepRead struct {
	s    *sweep
	addr coherence.Addr
	done func(magic.Result)
}

// next issues the line under the cursor and advances it.
func (s *sweep) next() proc.Op {
	addr := s.m.Space.Base(s.home) + coherence.Addr(s.li*128)
	if s.li += s.stride; s.li >= s.lines {
		s.home, s.li = s.home+1, 0
	}
	var r *sweepRead
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		r = &sweepRead{s: s}
		r.done = r.complete
	}
	r.addr = addr
	return proc.Op{Kind: proc.OpRead, Addr: addr, Done: r.done}
}

// complete classifies one read, or reissues it if a concurrent recovery
// aborted it (the sweep is idempotent).
func (r *sweepRead) complete(res magic.Result) {
	s := r.s
	if res.Err == magic.ErrAborted {
		s.cpu.Submit(proc.Op{Kind: proc.OpRead, Addr: r.addr, Done: r.done})
		return
	}
	s.res.Pending--
	home := s.m.Space.Home(r.addr)
	// A home whose processor died but whose memory bank still answers
	// (CPU-fail/memory-survives) is held to live-home standards: salvaged
	// clean lines must read back correctly, not hide behind a blanket bus
	// error.
	s.m.classify(s.res, r.addr, s.ctrl.NodeUp(home) || s.ctrl.MemReachable(home), res)
	s.free = append(s.free, r)
}

func (m *Machine) classify(res *VerifyResult, addr coherence.Addr, homeUp bool, r magic.Result) {
	switch {
	case !homeUp:
		if r.Err == magic.ErrBusError {
			res.InaccessibleOK++
		} else {
			res.MissingBusErr = append(res.MissingBusErr, addr)
		}
	case r.Err == magic.ErrBusError:
		if m.Oracle.MayBeLost(addr) {
			res.Incoherent++
		} else {
			res.OverMarked = append(res.OverMarked, addr)
		}
	case r.Err != nil:
		res.WrongData = append(res.WrongData, addr)
	case r.Token == m.Oracle.ExpectedToken(addr):
		res.CorrectData++
	default:
		res.WrongData = append(res.WrongData, addr)
	}
}
