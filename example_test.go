package skipqueue_test

import (
	"fmt"

	"skipqueue"
)

func ExampleQueue() {
	q := skipqueue.New[int, string]()
	q.Insert(30, "thirty")
	q.Insert(10, "ten")
	q.Insert(20, "twenty")
	q.Insert(10, "TEN") // same key: value replaced in place

	for {
		k, v, ok := q.DeleteMin()
		if !ok {
			break
		}
		fmt.Println(k, v)
	}
	// Output:
	// 10 TEN
	// 20 twenty
	// 30 thirty
}

func ExamplePQ() {
	pq := skipqueue.NewPQ[string]()
	pq.Push(2, "second (a)")
	pq.Push(1, "first")
	pq.Push(2, "second (b)") // duplicate priorities are fine: FIFO within 2

	for {
		p, v, ok := pq.Pop()
		if !ok {
			break
		}
		fmt.Println(p, v)
	}
	// Output:
	// 1 first
	// 2 second (a)
	// 2 second (b)
}

func ExampleNew_relaxed() {
	// The relaxed queue drops the strict ordering timestamps (paper §5.4):
	// faster deletions under heavy contention, with the caveat that an
	// element inserted concurrently with a DeleteMin may be returned when
	// it sorts first.
	q := skipqueue.New[int64, struct{}](skipqueue.WithRelaxed())
	q.Insert(7, struct{}{})
	k, _, _ := q.DeleteMin()
	fmt.Println(k, q.Relaxed())
	// Output:
	// 7 true
}

func ExampleBounded() {
	// Priorities known to be in [0, 8): the bin queue the paper contrasts
	// the general SkipQueue with.
	q := skipqueue.NewBounded[string](8)
	q.Insert(5, "background")
	q.Insert(0, "urgent")
	p, v, _ := q.DeleteMin()
	fmt.Println(p, v)
	// Output:
	// 0 urgent
}

func ExampleHeap() {
	h := skipqueue.NewHeap[int, string](1024) // fixed capacity: heaps pre-allocate
	_ = h.Insert(2, "b")
	_ = h.Insert(1, "a")
	k, v, _ := h.DeleteMin()
	fmt.Println(k, v)
	// Output:
	// 1 a
}
