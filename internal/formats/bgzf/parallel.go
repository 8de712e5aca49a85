package bgzf

import (
	"errors"
	"io"
	"sync"
)

// ParallelWriter compresses BGZF blocks on multiple workers while an
// ordering stage writes them out in sequence — the same trick samtools'
// --threads option uses; block independence is exactly what BGZF buys.
// Its blocks are byte for byte those of Writer.
type ParallelWriter struct {
	cur *slot // the block being filled

	// A slot goes free → (filled by Write) → jobs and pending → free. jobs
	// feeds the workers; pending, in dispatch order, the writing goroutine,
	// which waits for each slot's worker before writing its block.
	free    chan *slot
	jobs    chan *slot
	pending chan *slot
	wg      sync.WaitGroup
	writeWG sync.WaitGroup

	mu  sync.Mutex
	err error
}

// slot is one block in flight. Slots are recycled, so a steady stream
// allocates nothing per block.
type slot struct {
	payload []byte
	block   []byte
	done    chan struct{} // one token per compression, from worker to writer
}

// NewParallelWriter returns a BGZF writer compressing on workers goroutines.
func NewParallelWriter(w io.Writer, workers int) *ParallelWriter {
	if workers < 1 {
		workers = 1
	}
	// Two blocks in flight per worker, and the one being filled.
	slots := 2*workers + 1
	p := &ParallelWriter{
		free:    make(chan *slot, slots),
		jobs:    make(chan *slot, slots),
		pending: make(chan *slot, slots),
	}
	for i := 0; i < slots; i++ {
		p.free <- &slot{done: make(chan struct{}, 1)}
	}
	p.cur = <-p.free
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for s := range p.jobs {
				s.block = compressBlock(s.block[:0], s.payload)
				s.done <- struct{}{}
			}
		}()
	}
	p.writeWG.Add(1)
	go func() {
		defer p.writeWG.Done()
		for s := range p.pending {
			<-s.done
			if p.getErr() == nil {
				if _, err := w.Write(s.block); err != nil {
					p.setErr(err)
				}
			}
			s.payload = s.payload[:0]
			p.free <- s
		}
		if p.getErr() == nil {
			if _, err := w.Write(eofMarker); err != nil {
				p.setErr(err)
			}
		}
	}()
	return p
}

func (p *ParallelWriter) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *ParallelWriter) getErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Write buffers p, dispatching full blocks to the compression workers.
func (p *ParallelWriter) Write(data []byte) (int, error) {
	if err := p.getErr(); err != nil {
		return 0, err
	}
	total := len(data)
	for len(data) > 0 {
		if p.cur.payload == nil {
			p.cur.payload = make([]byte, 0, MaxBlockSize)
		}
		room := MaxBlockSize - len(p.cur.payload)
		n := len(data)
		if n > room {
			n = room
		}
		p.cur.payload = append(p.cur.payload, data[:n]...)
		data = data[n:]
		if len(p.cur.payload) == MaxBlockSize {
			p.dispatch()
		}
	}
	return total, nil
}

// dispatch hands the filled slot to a worker, preserving output order
// through the pending queue, and takes a free one to fill next — waiting,
// when every slot is in flight, for the writing goroutine to release one.
func (p *ParallelWriter) dispatch() {
	p.pending <- p.cur
	p.jobs <- p.cur
	p.cur = <-p.free
}

// Close flushes the final block, waits for all compression and writing to
// finish, writes the EOF marker, and reports any deferred error.
func (p *ParallelWriter) Close() error {
	if len(p.cur.payload) > 0 {
		p.dispatch()
	}
	close(p.jobs)
	p.wg.Wait()
	close(p.pending)
	p.writeWG.Wait()
	if err := p.getErr(); err != nil {
		return err
	}
	p.setErr(errors.New("bgzf: writer closed"))
	return nil
}
