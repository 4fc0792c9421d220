// Package pool implements the paper's section-III use case: a distributed
// parallel map based on the master-worker pattern, supporting multiple
// concurrent asynchronous jobs with dynamic task distribution (idle workers
// pull tasks from the master, so imbalanced task costs still balance).
//
// The structure mirrors the paper's code: a MapManager chare on PE 0
// coordinates a Group of Worker chares (one per PE); MapAsync starts a job
// on a requested number of free PEs and fulfills a future with the ordered
// result list when the job completes.
package pool

import (
	"fmt"
	"sort"
	"sync"

	"charmgo/internal/core"
	"charmgo/internal/ser"
)

// TaskFunc is a function applied to each task of a map job. Functions are
// registered by name (RegisterFunc) so jobs can run across nodes — the
// analog of CharmPy pickling Python functions.
type TaskFunc func(task any) any

var (
	funcMu  sync.RWMutex
	funcReg = map[string]TaskFunc{}
)

// RegisterFunc registers fn under name on this node. Must be registered on
// every node of a job before use.
func RegisterFunc(name string, fn TaskFunc) {
	funcMu.Lock()
	defer funcMu.Unlock()
	funcReg[name] = fn
}

func lookupFunc(name string) TaskFunc {
	funcMu.RLock()
	defer funcMu.RUnlock()
	fn := funcReg[name]
	if fn == nil {
		panic(fmt.Sprintf("pool: task function %q not registered", name))
	}
	return fn
}

// Register registers the pool's chare types with a runtime. Call before
// Runtime.Start on every node.
func Register(rt *core.Runtime) {
	rt.Register(&Worker{})
	rt.Register(&MapManager{})
}

// Worker executes tasks for one job at a time (paper section III).
type Worker struct {
	core.Chare
	JobID    int
	FuncName string
	Tasks    []any
	Chunked  bool
	Master   core.Proxy
}

func init() {
	core.Bind[Worker](
		core.EM1((*Worker).Apply),
		core.EM5((*Worker).Start),
	)
}

// Start begins a new job on this worker: it records the job and requests the
// first task from the master.
func (w *Worker) Start(jobID int, funcName string, tasks []any, chunked bool, master core.Proxy) {
	w.JobID = jobID
	w.FuncName = funcName
	// tasks may arrive on the zero-copy broadcast path, aliasing a delivery
	// buffer that is recycled when this method returns — clone before keeping.
	w.Tasks = ser.CloneArgs(tasks)
	w.Chunked = chunked
	w.Master = master
	master.Call("GetTask", w.ThisIndex[0], jobID, -1, nil)
}

// Apply applies the job's function to the given task and requests a new task,
// piggybacking the result (paper: the previous result is sent at the same
// time as a new task is requested). In chunked jobs one "task" is a slice of
// inputs and the function is applied elementwise (charm4py pool chunksize).
func (w *Worker) Apply(taskID int) {
	fn := lookupFunc(w.FuncName)
	var result any
	if w.Chunked {
		chunk := w.Tasks[taskID].([]any)
		out := make([]any, len(chunk))
		for i, el := range chunk {
			out[i] = fn(el)
		}
		result = out
	} else {
		result = fn(w.Tasks[taskID])
	}
	w.Master.Call("GetTask", w.ThisIndex[0], w.JobID, taskID, result)
}

// Job is the master-side bookkeeping for one map job.
type Job struct {
	ID      int
	Tasks   []any
	Results []any
	Next    int
	Done    int
	Procs   []int
	Chunked bool
	Future  core.Future
}

// MapManager is the master chare coordinating the worker pool.
type MapManager struct {
	core.Chare
	Workers   core.Proxy
	FreeProcs map[int]bool
	NextJobID int
	Jobs      map[int]*Job
}

func init() {
	core.Bind[MapManager](
		core.EM4((*MapManager).GetTask),
		core.EM0((*MapManager).Init),
		core.EM4((*MapManager).MapAsync),
		core.EM5((*MapManager).MapAsyncChunked),
	)
}

// Init creates a Worker on every PE and marks PEs 1..N-1 free (PE 0 runs the
// master, as in the paper; on a single-PE job PE 0 is used too).
func (m *MapManager) Init() {
	m.Workers = m.NewGroup(&Worker{})
	m.FreeProcs = map[int]bool{}
	m.Jobs = map[int]*Job{}
	lo := 1
	if m.NumPEs() == 1 {
		lo = 0
	}
	for p := lo; p < m.NumPEs(); p++ {
		m.FreeProcs[p] = true
	}
}

// MapAsync starts a new map job applying the named function to tasks on
// numProcs free PEs; the ordered results are sent to future when done.
func (m *MapManager) MapAsync(funcName string, numProcs int, tasks []any, future core.Future) {
	// The job outlives this entry method, so it must not retain buffer-aliased
	// arguments (see Worker.Start).
	m.startJob(funcName, numProcs, ser.CloneArgs(tasks), false, future)
}

// MapAsyncChunked is MapAsync with tasks batched into chunks of the given
// size, reducing per-task messaging for fine-grained tasks.
func (m *MapManager) MapAsyncChunked(funcName string, numProcs int, tasks []any, chunkSize int, future core.Future) {
	if chunkSize <= 0 {
		chunkSize = 1
	}
	var chunks []any
	for lo := 0; lo < len(tasks); lo += chunkSize {
		hi := lo + chunkSize
		if hi > len(tasks) {
			hi = len(tasks)
		}
		chunks = append(chunks, ser.CloneArgs(tasks[lo:hi]))
	}
	m.startJob(funcName, numProcs, chunks, true, future)
}

func (m *MapManager) startJob(funcName string, numProcs int, tasks []any, chunked bool, future core.Future) {
	if numProcs <= 0 {
		numProcs = 1
	}
	if numProcs > len(m.FreeProcs) {
		panic(fmt.Sprintf("pool: job needs %d PEs but only %d are free", numProcs, len(m.FreeProcs)))
	}
	if numProcs > len(tasks) {
		numProcs = len(tasks)
	}
	free := make([]int, 0, len(m.FreeProcs))
	for p := range m.FreeProcs {
		free = append(free, p)
	}
	sort.Ints(free)
	free = free[:numProcs]
	for _, p := range free {
		delete(m.FreeProcs, p)
	}
	job := &Job{
		ID:      m.NextJobID,
		Tasks:   tasks,
		Results: make([]any, len(tasks)),
		Procs:   free,
		Chunked: chunked,
		Future:  future,
	}
	m.NextJobID++
	m.Jobs[job.ID] = job
	for _, p := range free {
		m.Workers.At(p).Call("Start", job.ID, funcName, tasks, chunked, m.SelfProxy())
	}
}

// GetTask is called by a worker to request a task, delivering the result of
// its previous task (prevTask < 0 on the first request).
func (m *MapManager) GetTask(src, jobID, prevTask int, prevResult any) {
	job := m.Jobs[jobID]
	if job == nil {
		return // job already completed (late duplicate)
	}
	if prevTask >= 0 {
		job.Results[prevTask] = prevResult
		job.Done++
	}
	if job.Done == len(job.Tasks) {
		for _, p := range job.Procs {
			m.FreeProcs[p] = true
		}
		delete(m.Jobs, jobID)
		if job.Chunked {
			var flat []any
			for _, chunk := range job.Results {
				flat = append(flat, chunk.([]any)...)
			}
			job.Future.Send(flat)
			return
		}
		job.Future.Send(job.Results)
		return
	}
	if job.Next < len(job.Tasks) {
		task := job.Next
		job.Next++
		m.Workers.At(src).Call("Apply", task)
	}
}

// ---- client-side convenience API ----

// Pool wraps a MapManager proxy with a Python-multiprocessing-like API.
type Pool struct {
	mgr core.Proxy
}

// New creates the manager chare on PE 0 and returns a Pool handle. Call from
// the program entry point (or any chare).
func New(self *core.Chare) *Pool {
	return &Pool{mgr: self.NewChare(&MapManager{}, core.PE(0))}
}

// MapAsync launches a job and returns a future for the ordered results.
func (p *Pool) MapAsync(self *core.Chare, funcName string, numProcs int, tasks []any) core.Future {
	f := self.CreateFuture()
	p.mgr.Call("MapAsync", funcName, numProcs, tasks, f)
	return f
}

// Map is the blocking variant: it runs the job and returns the results.
func (p *Pool) Map(self *core.Chare, funcName string, numProcs int, tasks []any) []any {
	res := p.MapAsync(self, funcName, numProcs, tasks).Get()
	return res.([]any)
}

// MapChunked is Map with tasks batched into chunks of the given size
// (charm4py: pool chunksize), cutting the per-task message overhead for
// fine-grained workloads. Results stay in input order.
func (p *Pool) MapChunked(self *core.Chare, funcName string, numProcs int, tasks []any, chunkSize int) []any {
	f := self.CreateFuture()
	p.mgr.Call("MapAsyncChunked", funcName, numProcs, tasks, chunkSize, f)
	return f.Get().([]any)
}
