package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"charmgo/internal/ser"
)

// Checkpoint/restart (the paper's future-work fault tolerance, section VI,
// following Charm++'s checkpointing): at an application synchronization
// point, every chare's state is serialized and written to a file; a later
// run restores the collections and chares and resumes. Because element
// placement is recomputed for the restoring job's PE count, restart doubles
// as shrink-expand: a checkpoint taken on N PEs can be restored on M.
//
// Caveats (as in Charm++'s simple checkpoint scheme): the application must
// be at a sync point — no messages in flight (use WaitQD), no reductions
// outstanding, no suspended threaded entry methods; futures do not survive
// a restart.

// ckptFile is the on-disk checkpoint format (gob-encoded).
type ckptFile struct {
	TotalPEs    int
	Collections []createMsg
	Elements    []ckptElem
	CIDSeqs     map[PE]int32
}

type ckptElem struct {
	CID   CID
	Idx   []int
	Blob  []byte
	RedNo int64
}

type ckptCollectMsg struct {
	Fut FutureRef
}

// ckptBundle is one PE's contribution, sent back through a future.
type ckptBundle struct {
	Colls  []createMsg
	Elems  []ckptElem
	CIDSeq int32
	PE     PE
}

// collectBundle serializes every chare element hosted on this PE into a
// ckptBundle. Shared by the disk checkpoint path (ckptCollect) and the
// in-memory buddy snapshot path (mFTCollect in ft.go).
func (p *peState) collectBundle() ckptBundle {
	b := ckptBundle{CIDSeq: p.cidSeq, PE: p.pe}
	for cid, coll := range p.colls {
		if cid == mainCID {
			continue // the main chare is recreated by the restart entry
		}
		if len(coll.localRed) > 0 || len(coll.rootRed) > 0 {
			panic(fmt.Sprintf("core: checkpoint with reductions in flight on collection %d", cid))
		}
		b.Colls = append(b.Colls, *coll.cm)
		for _, el := range coll.elems {
			if el.liveThreads > 0 {
				panic(fmt.Sprintf("core: checkpoint of chare %s[%v] with live threads", coll.ct.name, el.idx))
			}
			blob, err := ser.EncodeValue(el.iface)
			if err != nil {
				panic(fmt.Sprintf("core: cannot checkpoint chare %s[%v]: %v", coll.ct.name, el.idx, err))
			}
			b.Elems = append(b.Elems, ckptElem{CID: cid, Idx: el.idx, Blob: blob, RedNo: el.redNo})
		}
	}
	return b
}

// ckptCollect runs on each PE's scheduler: serialize everything local.
func (p *peState) ckptCollect(cm *ckptCollectMsg) {
	p.rt.sendFutureSet(cm.Fut, p.collectBundle())
}

// Checkpoint writes the job's full chare state to path. It must be called
// from a threaded entry method at an application sync point (see package
// notes above). Single-node jobs only.
func (c *Chare) Checkpoint(path string) error {
	ec := c.ctx()
	rt := ec.p.rt
	if rt.numNodes > 1 {
		return fmt.Errorf("core: checkpoint currently supports single-node jobs only")
	}
	f := ec.p.newFuture(rt.totalPEs, false)
	for pe := 0; pe < rt.totalPEs; pe++ {
		rt.send(PE(pe), &Message{Kind: mCkptCollect, Src: ec.p.pe, Ctl: &ckptCollectMsg{Fut: f.Ref}})
	}
	raw := f.Get()
	bundles, ok := raw.([]any)
	if !ok {
		bundles = []any{raw} // single-PE job: Get returns the lone value
	}

	out := ckptFile{TotalPEs: rt.totalPEs, CIDSeqs: map[PE]int32{}}
	seen := map[CID]bool{}
	for _, raw := range bundles {
		b := raw.(ckptBundle)
		out.CIDSeqs[b.PE] = b.CIDSeq
		for _, cm := range b.Colls {
			if !seen[cm.CID] {
				seen[cm.CID] = true
				out.Collections = append(out.Collections, cm)
			}
		}
		out.Elements = append(out.Elements, b.Elems...)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&out); err != nil {
		return fmt.Errorf("core: encode checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return os.Rename(tmp, path)
}

// Restart restores a checkpoint into a fresh runtime and then runs entry on
// the main chare with proxies to every restored collection (keyed by the
// collection ids, which are preserved). The runtime may have a different
// total PE count than the one that took the checkpoint (shrink-expand);
// elements are re-placed by the restoring job's placement rules.
func Restart(rt *Runtime, path string, entry func(self *Chare, colls map[CID]Proxy)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("core: read checkpoint: %w", err)
	}
	var ck ckptFile
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return fmt.Errorf("core: decode checkpoint: %w", err)
	}
	rt.Start(func(self *Chare) {
		p := self.ctx().p
		// Restore collection-id allocation state so new collections created
		// after the restart cannot collide with restored ones.
		for pe, seq := range ck.CIDSeqs {
			if rt.isLocal(pe) && pe == p.pe {
				if seq > p.cidSeq {
					p.cidSeq = seq
				}
			}
		}
		// cids allocated on other old PEs: bump every local PE's sequence to
		// the max to stay safe under shrink (old PE ids may not exist).
		var maxSeq int32
		for _, seq := range ck.CIDSeqs {
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		if maxSeq > p.cidSeq {
			p.cidSeq = maxSeq
		}
		// Recreate collections without instantiating elements.
		colls := map[CID]Proxy{}
		for _, cm := range ck.Collections {
			cmCopy := cm
			cmCopy.NoInit = true
			rt.putCollMeta(&cmCopy)
			rt.bcastAllPEs(&Message{Kind: mCreate, Src: p.pe, Ctl: &cmCopy})
			colls[cm.CID] = Proxy{CID: cm.CID, rt: rt, p: p}
		}
		// Ship every element to its placement under the new PE count, using
		// the migration machinery (installs state, re-binds proxies, updates
		// homes).
		for _, el := range ck.Elements {
			dest := rt.homePE(el.CID, idxKey(el.Idx))
			if meta := rt.collMeta(el.CID); meta != nil {
				dest = rt.initialPE(meta, el.Idx)
			}
			rt.send(dest, &Message{Kind: mMigrate, CID: el.CID, Src: p.pe,
				Ctl: &migrateMsg{CID: el.CID, Idx: el.Idx, Blob: el.Blob, RedNo: el.RedNo}})
		}
		// Barrier: a ping to each PE flushes behind the migrates (FIFO per
		// destination), so every element is installed before entry runs.
		bar := p.newFuture(rt.totalPEs, true)
		for pe := 0; pe < rt.totalPEs; pe++ {
			rt.send(PE(pe), &Message{Kind: mPing, Src: p.pe, Fut: bar.Ref})
		}
		bar.Get()
		entry(self, colls)
	})
	return nil
}
