package main

import (
	"time"

	"alltoallx/internal/comm"
	"alltoallx/internal/topo"
)

// commCounts are one rank's live-runtime counters.
type commCounts struct {
	Msgs        int64
	Bytes       int64
	MemcpyBytes int64
	Wait        time.Duration // in Wait, WaitAll, Recv, Sendrecv and Barrier
}

// since returns what was counted after the snapshot before.
func (c commCounts) since(before commCounts) commCounts {
	return commCounts{
		Msgs:        c.Msgs - before.Msgs,
		Bytes:       c.Bytes - before.Bytes,
		MemcpyBytes: c.MemcpyBytes - before.MemcpyBytes,
		Wait:        c.Wait - before.Wait,
	}
}

// countingComm forwards to a live communicator and counts messages,
// payload bytes, memcpy bytes and blocking time. Sub-communicators from
// Split count into the same counters. It is driven by one rank goroutine,
// like the communicator it wraps.
type countingComm struct {
	inner comm.Comm
	n     *commCounts
}

// countingAsync adds the comm.AsyncStarter capability, so wrapping the
// live runtime keeps its asynchronous handles.
type countingAsync struct {
	countingComm
	starter comm.AsyncStarter
}

// wrapCounting wraps c, keeping comm.AsyncStarter when c has it.
func wrapCounting(c comm.Comm, n *commCounts) comm.Comm {
	cc := countingComm{inner: c, n: n}
	if s, ok := c.(comm.AsyncStarter); ok {
		return &countingAsync{countingComm: cc, starter: s}
	}
	return &cc
}

func (a *countingAsync) StartAsync(body func() error) comm.Async { return a.starter.StartAsync(body) }

func (c *countingComm) Rank() int { return c.inner.Rank() }
func (c *countingComm) Size() int { return c.inner.Size() }

func (c *countingComm) Send(b comm.Buffer, dst, tag int) error {
	c.n.Msgs++
	c.n.Bytes += int64(b.Len())
	t0 := time.Now()
	err := c.inner.Send(b, dst, tag)
	c.n.Wait += time.Since(t0)
	return err
}

func (c *countingComm) Recv(b comm.Buffer, src, tag int) error {
	t0 := time.Now()
	err := c.inner.Recv(b, src, tag)
	c.n.Wait += time.Since(t0)
	return err
}

func (c *countingComm) Isend(b comm.Buffer, dst, tag int) (comm.Request, error) {
	c.n.Msgs++
	c.n.Bytes += int64(b.Len())
	return c.inner.Isend(b, dst, tag)
}

func (c *countingComm) Irecv(b comm.Buffer, src, tag int) (comm.Request, error) {
	return c.inner.Irecv(b, src, tag)
}

func (c *countingComm) Wait(r comm.Request) error {
	t0 := time.Now()
	err := c.inner.Wait(r)
	c.n.Wait += time.Since(t0)
	return err
}

func (c *countingComm) WaitAll(rs []comm.Request) error {
	t0 := time.Now()
	err := c.inner.WaitAll(rs)
	c.n.Wait += time.Since(t0)
	return err
}

func (c *countingComm) Sendrecv(sb comm.Buffer, dst, stag int, rb comm.Buffer, src, rtag int) error {
	c.n.Msgs++
	c.n.Bytes += int64(sb.Len())
	t0 := time.Now()
	err := c.inner.Sendrecv(sb, dst, stag, rb, src, rtag)
	c.n.Wait += time.Since(t0)
	return err
}

func (c *countingComm) Barrier() error {
	t0 := time.Now()
	err := c.inner.Barrier()
	c.n.Wait += time.Since(t0)
	return err
}

func (c *countingComm) Split(color, key int) (comm.Comm, error) {
	sub, err := c.inner.Split(color, key)
	if err != nil || sub == nil {
		return sub, err
	}
	return wrapCounting(sub, c.n), nil
}

func (c *countingComm) Memcpy(dst, src comm.Buffer) error {
	c.n.MemcpyBytes += int64(src.Len())
	return c.inner.Memcpy(dst, src)
}

func (c *countingComm) ChargeCopy(bytes, blocks int) error {
	c.n.MemcpyBytes += int64(bytes)
	return c.inner.ChargeCopy(bytes, blocks)
}

func (c *countingComm) Now() float64                  { return c.inner.Now() }
func (c *countingComm) Compute(seconds float64) error { return c.inner.Compute(seconds) }
func (c *countingComm) Topo() *topo.Mapping           { return c.inner.Topo() }
