package main

import (
	"sync/atomic"
	"time"

	"forkwatch/internal/db"
	"forkwatch/internal/db/diskdb"
)

// openDisk opens a disk store in dir through syncFS. With durable false
// the store does every append, framing and index step of a real one but
// issues no fsync: on a host whose disk other tenants share, fsync
// latency is their I/O rather than this program's work. With durable
// true each fsync is issued and timed into lat.
func openDisk(dir string, durable bool, lat *hist) (db.KV, error) {
	fs, err := diskdb.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	return diskdb.Open(syncFS{FS: fs, durable: durable, lat: lat}, diskdb.Options{})
}

// syncFS wraps a diskdb filesystem to skip or time fsync.
type syncFS struct {
	diskdb.FS
	durable bool
	lat     *hist
}

func (fs syncFS) Open(name string) (diskdb.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return syncFile{File: f, fs: fs}, nil
}

type syncFile struct {
	diskdb.File
	fs syncFS
}

func (f syncFile) Sync() error {
	if !f.fs.durable {
		return nil
	}
	t := time.Now()
	err := f.File.Sync()
	if f.fs.lat != nil {
		f.fs.lat.observe(time.Since(t))
	}
	return err
}

// kvMeter aggregates a replica's storage calls: one count per durable
// operation (every disk Put, Delete or batch Write is one append and
// fsync), the bytes they carry, and latency histograms for batch writes
// and for Gets while the read mixes run.
type kvMeter struct {
	syncs      atomic.Int64
	bytes      atomic.Int64
	reading    atomic.Bool
	batchWrite hist
	get        hist
}

// meteredKV wraps a replica store through serve.ReplicaConfig.WrapKV.
type meteredKV struct {
	inner db.KV
	m     *kvMeter
}

func (k *meteredKV) Get(key []byte) ([]byte, bool, error) {
	if !k.m.reading.Load() {
		return k.inner.Get(key)
	}
	t := time.Now()
	v, ok, err := k.inner.Get(key)
	k.m.get.observe(time.Since(t))
	return v, ok, err
}

func (k *meteredKV) Put(key, value []byte) error {
	k.m.syncs.Add(1)
	k.m.bytes.Add(int64(len(key) + len(value)))
	return k.inner.Put(key, value)
}

func (k *meteredKV) Has(key []byte) (bool, error) { return k.inner.Has(key) }

func (k *meteredKV) Delete(key []byte) error {
	k.m.syncs.Add(1)
	k.m.bytes.Add(int64(len(key)))
	return k.inner.Delete(key)
}

func (k *meteredKV) NewBatch() db.Batch { return &meteredBatch{Batch: k.inner.NewBatch(), m: k.m} }

func (k *meteredKV) Stats() db.Stats { return k.inner.Stats() }

// Inner exposes the wrapped store, so serve's shutdown finds the disk
// store to close through this wrapper.
func (k *meteredKV) Inner() db.KV { return k.inner }

type meteredBatch struct {
	db.Batch
	m     *kvMeter
	bytes int64
}

func (b *meteredBatch) Put(key, value []byte) {
	b.bytes += int64(len(key) + len(value))
	b.Batch.Put(key, value)
}

func (b *meteredBatch) Delete(key []byte) {
	b.bytes += int64(len(key))
	b.Batch.Delete(key)
}

func (b *meteredBatch) Write() error {
	t := time.Now()
	err := b.Batch.Write()
	b.m.batchWrite.observe(time.Since(t))
	b.m.syncs.Add(1)
	b.m.bytes.Add(b.bytes)
	b.bytes = 0
	return err
}

func (b *meteredBatch) Reset() {
	b.bytes = 0
	b.Batch.Reset()
}
