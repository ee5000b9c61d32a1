package mpi

import "fmt"

// The point-to-point layer the collectives are built from. Tags are
// internal: collectives draw theirs from the collTag range.

// sendRaw delivers data to dst (a comm rank) with the given tag. The data
// slice is copied before handoff, so the caller may reuse it immediately —
// matching MPI_Send's buffer semantics.
func (c *Comm) sendRaw(dst int, tag int32, data []byte) error {
	if err := c.eng.fence(c.gen); err != nil {
		return err
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	return c.eng.tr.send(c.glob[dst], envelope{
		ctx:  c.ctx,
		src:  int32(c.rank),
		tag:  tag,
		data: buf,
	})
}

// irecvRaw posts a non-blocking receive for a message from src (a comm
// rank) with the given tag. The payload is available from Request.Wait.
func (c *Comm) irecvRaw(src int, tag int32) *Request {
	req := newRequest()
	c.eng.post(matchKey{c.ctx, int32(src), tag}, c.gen, req)
	return req
}

// recvRaw blocks until a message from src with the given tag arrives and
// returns its payload.
func (c *Comm) recvRaw(src int, tag int32) ([]byte, error) {
	data, err := c.irecvRaw(src, tag).Wait()
	if err != nil {
		return nil, fmt.Errorf("mpi: recv from %d tag %d: %w", src, tag, err)
	}
	return data, nil
}
