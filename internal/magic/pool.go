package magic

import (
	"fmt"

	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
)

// Free lists for the steady-state protocol round trip: a remote read costs
// two messages and one MSHR, and minting them fresh was most of the garbage
// a run produced. Each controller owns its lists, so partitioned region
// workers never share one. Who mints and who releases each record, and
// what must never be recycled, is set out in DESIGN.md ("Hot-path
// ownership"); in short:
//   - sendMsg mints an envelope; the controller that dispatches the message
//     releases it into its own list once the handler returns, so envelopes
//     drift from senders to receivers and the bounded lists spill the
//     excess to the garbage collector;
//   - a packet the fabric retained, truncated or dropped is never
//     dispatched, and its retransmission travels in a fresh packet without
//     an Owner, so such an envelope is never released;
//   - completeMSHR recycles an MSHR after its waiters have replayed.

// envelope is one protocol message and the packet that carries it,
// allocated together.
type envelope struct {
	pkt interconnect.Packet
	msg coherence.Message
}

// poolCap bounds each free list.
const poolCap = 16

// msgRecycled marks the message of a released envelope: delivering one
// means an envelope was used after its release.
const msgRecycled coherence.MsgType = 0xff

func (c *Controller) newEnvelope() *envelope {
	n := len(c.freeEnvs)
	if n == 0 {
		return &envelope{}
	}
	env := c.freeEnvs[n-1]
	c.freeEnvs[n-1] = nil
	c.freeEnvs = c.freeEnvs[:n-1]
	return env
}

// releaseEnvelope recycles the envelope of a dispatched packet, if it has
// one: a retransmitted copy, or a packet some other sender built, leads
// back to none.
func (c *Controller) releaseEnvelope(p *interconnect.Packet) {
	env, ok := p.Owner.(*envelope)
	if !ok || p != &env.pkt {
		return
	}
	env.pkt = interconnect.Packet{}
	env.msg = coherence.Message{Type: msgRecycled}
	if len(c.freeEnvs) < poolCap {
		c.freeEnvs = append(c.freeEnvs, env)
	}
}

// mustLive panics when msg belongs to a released envelope.
func (c *Controller) mustLive(msg *coherence.Message) {
	if msg.Type == msgRecycled {
		panic(fmt.Sprintf("magic: node %d received a message whose envelope was already recycled", c.ID))
	}
}

func (c *Controller) newMSHR() *mshr {
	n := len(c.freeMSHRs)
	if n == 0 {
		return &mshr{}
	}
	m := c.freeMSHRs[n-1]
	c.freeMSHRs[n-1] = nil
	c.freeMSHRs = c.freeMSHRs[:n-1]
	return m
}

// recycleMSHR returns a completed MSHR to the free list, keeping its
// waiter buffer's capacity.
func (c *Controller) recycleMSHR(m *mshr) {
	clear(m.waiters)
	*m = mshr{waiters: m.waiters[:0]}
	if len(c.freeMSHRs) < poolCap {
		c.freeMSHRs = append(c.freeMSHRs, m)
	}
}

// mshrBySeq returns the outstanding operation with sequence number seq,
// or nil if it has completed or been aborted.
func (c *Controller) mshrBySeq(seq uint64) *mshr {
	for _, m := range c.mshrs {
		if m.seq == seq {
			return m
		}
	}
	return nil
}

// mshrForLine returns the outstanding cacheable operation on line addr.
// There is at most one: access merges same-line operations into it.
func (c *Controller) mshrForLine(addr coherence.Addr) *mshr {
	for _, m := range c.mshrs {
		if !m.uncached && m.addr == addr {
			return m
		}
	}
	return nil
}

// dropMSHR removes m from the outstanding set, keeping issue order.
func (c *Controller) dropMSHR(m *mshr) {
	for i, o := range c.mshrs {
		if o == m {
			n := copy(c.mshrs[i:], c.mshrs[i+1:])
			c.mshrs[i+n] = nil
			c.mshrs = c.mshrs[:i+n]
			return
		}
	}
}
