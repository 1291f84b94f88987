package sim

// Mailbox is an unbounded FIFO message queue between processes. Send never
// blocks; Recv blocks until a message is available. Messages are delivered
// in send order, and blocked receivers are served in arrival order.
//
// Mailboxes model point-to-point message delivery; transit latency is the
// sender's concern (wait, then Send, or use Kernel.After).
type Mailbox struct {
	k       *Kernel
	name    string
	park    string // deadlock-diagnostic reason, built once
	queue   fifo[any]
	waiters fifo[*Proc]
	pending map[*Proc]any
}

// NewMailbox creates an empty mailbox.
func NewMailbox(k *Kernel, name string) *Mailbox {
	return &Mailbox{k: k, name: name, park: "recv " + name, pending: make(map[*Proc]any)}
}

// Name returns the mailbox's name.
func (m *Mailbox) Name() string { return m.name }

// Len returns the number of queued (sent but not yet received) messages.
func (m *Mailbox) Len() int { return m.queue.len() }

// Send enqueues v, waking the longest-blocked receiver if any. It may be
// called from process context or from event callbacks.
func (m *Mailbox) Send(v any) {
	if m.waiters.len() > 0 {
		p := m.waiters.pop()
		m.pending[p] = v
		m.k.wake(p)
		return
	}
	m.queue.push(v)
}

// Recv blocks p until a message is available and returns it.
func (m *Mailbox) Recv(p *Proc) any {
	if m.queue.len() > 0 {
		return m.queue.pop()
	}
	m.waiters.push(p)
	p.park(m.park)
	v := m.pending[p]
	delete(m.pending, p)
	return v
}
