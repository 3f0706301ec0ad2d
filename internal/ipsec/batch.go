package ipsec

import (
	"crypto/sha1"
	"encoding/binary"
)

// lanes is how many packets one blockSHA1x16 pass hashes: one per 32-bit
// lane of an AVX-512 register.
const lanes = 16

// Batch encapsulates packets with their ICVs computed sixteen at a time,
// one packet per AVX-512 lane, as the GPU computes them one packet per
// thread (§6.2.4). Encap does everything SA.Encap does — the same bytes,
// the same sequence numbers in the same order, the same refusals —
// except the ICV, which it queues; Flush writes every queued ICV. A
// Batch holds up to sixteen jobs of one block shape and flushes by
// itself when full or when the next job's shape differs, so equal-size
// traffic fills every lane. Without AVX-512, and off amd64, Flush hashes
// one message at a time with crypto/hmac. The zero Batch is ready to
// use; it allocates nothing, and serves one goroutine at a time.
type Batch struct {
	jobs [lanes]icvJob
	n    int
	// whole and tail are the queued messages' shape: whole 64-byte
	// blocks, then one or two blocks of tail and padding.
	whole, tail int

	h   [5][lanes]uint32
	p   [lanes]*byte
	pad [lanes][2 * sha1.BlockSize]byte
}

// icvJob is one queued ICV: HMAC-SHA1 of msg under mac, written to the
// ICVSize bytes behind msg.
type icvJob struct {
	mac *HMACSHA1
	msg []byte
}

// Encap is sa.Encap(dst, inner) with the ICV left for Flush: the frame
// it returns is complete but for its last ICVSize bytes.
func (b *Batch) Encap(sa *SA, dst, inner []byte) ([]byte, error) {
	return b.encap(sa, dst, inner, useX16)
}

// Flush writes the ICV of every queued packet and empties the batch.
func (b *Batch) Flush() { b.flush(useX16) }

// encap and flush hash on AVX-512 lanes if x16, else with crypto/hmac.
func (b *Batch) encap(sa *SA, dst, inner []byte, x16 bool) ([]byte, error) {
	out, authed, err := sa.frame(dst, inner)
	if err != nil {
		return nil, err
	}
	b.add(sa.hmac, authed, x16)
	return out, nil
}

// add queues HMAC-SHA1(mac's key, msg) for msg[len(msg):][:ICVSize],
// which must lie within cap(msg).
func (b *Batch) add(mac *HMACSHA1, msg []byte, x16 bool) {
	whole, tail := len(msg)/sha1.BlockSize, 1
	if len(msg)%sha1.BlockSize >= sha1.BlockSize-8 {
		tail = 2 // no room for the 8-byte length behind 0x80
	}
	if b.n > 0 && (whole != b.whole || tail != b.tail) {
		b.flush(x16)
	}
	b.jobs[b.n] = icvJob{mac, msg}
	b.n++
	b.whole, b.tail = whole, tail
	if b.n == lanes {
		b.flush(x16)
	}
}

func (b *Batch) flush(x16 bool) {
	jobs := b.jobs[:b.n]
	b.n = 0
	if len(jobs) == 0 {
		return
	}
	if !x16 {
		for _, j := range jobs {
			icv := j.mac.ICV(j.msg)
			copy(j.msg[len(j.msg):len(j.msg)+ICVSize], icv[:])
		}
		clear(jobs)
		return
	}

	// Inner hash: the key's ipad state, the whole blocks where they lie,
	// then the tail padded in the lane's pad buffer. A lane without a job
	// re-reads lane 0's message, so no gather reads outside a message.
	whole := b.whole * sha1.BlockSize
	end := b.tail * sha1.BlockSize
	for l, j := range jobs {
		for w, v := range j.mac.inner {
			b.h[w][l] = v
		}
		pad := b.pad[l][:end]
		t := copy(pad, j.msg[whole:])
		pad[t] = 0x80
		clear(pad[t+1 : end-8])
		binary.BigEndian.PutUint64(pad[end-8:], uint64(sha1.BlockSize+len(j.msg))*8)
	}
	if whole > 0 {
		for l, j := range jobs {
			b.p[l] = &j.msg[0]
		}
		b.idleLanes(len(jobs))
		blockSHA1x16(&b.h, &b.p, b.whole)
	}
	for l := range jobs {
		b.p[l] = &b.pad[l][0]
	}
	b.idleLanes(len(jobs))
	blockSHA1x16(&b.h, &b.p, b.tail)

	// Outer hash: the opad state and one block, the inner digest padded.
	for l, j := range jobs {
		pad := b.pad[l][:sha1.BlockSize]
		for w, v := range j.mac.outer {
			binary.BigEndian.PutUint32(pad[4*w:], b.h[w][l])
			b.h[w][l] = v
		}
		pad[SHA1Size] = 0x80
		clear(pad[SHA1Size+1 : sha1.BlockSize-8])
		binary.BigEndian.PutUint64(pad[sha1.BlockSize-8:], (sha1.BlockSize+SHA1Size)*8)
	}
	blockSHA1x16(&b.h, &b.p, 1)

	for l, j := range jobs {
		icv := j.msg[len(j.msg) : len(j.msg)+ICVSize]
		for w := range ICVSize / 4 {
			binary.BigEndian.PutUint32(icv[4*w:], b.h[w][l])
		}
	}
	clear(jobs) // keep no packet reachable past the flush
	clear(b.p[:])
}

// idleLanes points each lane from n on at lane 0's message.
func (b *Batch) idleLanes(n int) {
	for l := n; l < lanes; l++ {
		b.p[l] = b.p[0]
	}
}
