// Fixture: binary target — bare orderings are allowed.

fn main() {
    let v: Option<u32> = Some(1);
    println!("{}", v.unwrap());
    let a = AtomicU64::new(0);
    a.store(1, Ordering::SeqCst);
}
