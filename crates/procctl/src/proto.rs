//! Wire protocol between applications and the central server.
//!
//! The paper's implementation used UMAX sockets; ours uses the simulated
//! kernel's mailboxes. Messages are small word vectors:
//!
//! - `REGISTER root_pid reply_port [weight_milli]` — sent once by an
//!   application's root process at startup ("the root process of the
//!   application sends a message to the central server notifying the
//!   server of the application's existence, and further telling it the
//!   process ID of the root process"). The optional fourth word is a
//!   share weight in thousandths (1000 = the paper's equal priority),
//!   generalizing the paper's "given that all three have the same
//!   priority" equal split.
//! - `POLL root_pid reply_port` — sent periodically (every 6 s in the
//!   paper) by some process of the application.
//! - `TARGET n` — the server's reply: how many runnable processes the
//!   application should have.
//! - `BYE root_pid` — optional courtesy message when an application
//!   finishes, letting the server drop it before the next rpstat sweep.

use simkernel::{Message, Pid, PortId};

const OP_REGISTER: u64 = 1;
const OP_POLL: u64 = 2;
const OP_TARGET: u64 = 3;
const OP_BYE: u64 = 4;

/// A decoded client→server request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Application announcement.
    Register {
        /// Root process of the application.
        root: Pid,
        /// Where to send `TARGET` replies.
        reply_port: PortId,
        /// Share weight in thousandths (1000 = equal priority).
        weight_milli: u32,
    },
    /// Periodic target query.
    Poll {
        /// Root process of the application.
        root: Pid,
        /// Where to send the reply.
        reply_port: PortId,
    },
    /// The application has finished.
    Bye {
        /// Root process of the application.
        root: Pid,
    },
}

/// Encodes an equal-priority registration request.
pub fn encode_register(root: Pid, reply_port: PortId) -> Vec<u64> {
    vec![OP_REGISTER, u64::from(root.0), u64::from(reply_port.0)]
}

/// Encodes a registration request with an explicit share weight
/// (thousandths; 1000 = equal priority).
pub fn encode_register_weighted(root: Pid, reply_port: PortId, weight_milli: u32) -> Vec<u64> {
    vec![
        OP_REGISTER,
        u64::from(root.0),
        u64::from(reply_port.0),
        u64::from(weight_milli),
    ]
}

/// Encodes a poll request.
pub fn encode_poll(root: Pid, reply_port: PortId) -> Vec<u64> {
    vec![OP_POLL, u64::from(root.0), u64::from(reply_port.0)]
}

/// Encodes a goodbye.
pub fn encode_bye(root: Pid) -> Vec<u64> {
    vec![OP_BYE, u64::from(root.0)]
}

/// Encodes the server's target reply.
pub fn encode_target(target: u32) -> Vec<u64> {
    vec![OP_TARGET, u64::from(target)]
}

/// Decodes a client→server request; `None` for malformed messages (the
/// server ignores them rather than crashing — defensive, as a real daemon
/// must be).
pub fn decode_request(msg: &Message) -> Option<Request> {
    match *msg.body.as_slice() {
        [OP_REGISTER, root, port] => Some(Request::Register {
            root: Pid(u32::try_from(root).ok()?),
            reply_port: PortId(u32::try_from(port).ok()?),
            weight_milli: 1_000,
        }),
        [OP_REGISTER, root, port, weight] => Some(Request::Register {
            root: Pid(u32::try_from(root).ok()?),
            reply_port: PortId(u32::try_from(port).ok()?),
            weight_milli: u32::try_from(weight).ok().filter(|&w| w > 0)?,
        }),
        [OP_POLL, root, port] => Some(Request::Poll {
            root: Pid(u32::try_from(root).ok()?),
            reply_port: PortId(u32::try_from(port).ok()?),
        }),
        [OP_BYE, root] => Some(Request::Bye {
            root: Pid(u32::try_from(root).ok()?),
        }),
        _ => None,
    }
}

/// Decodes a server→client target reply. Words after the count are
/// ignored.
pub fn decode_target(msg: &Message) -> Option<u32> {
    match *msg.body.as_slice() {
        [OP_TARGET, n, ..] => u32::try_from(n).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(body: Vec<u64>) -> Message {
        Message { from: Pid(9), body }
    }

    #[test]
    fn register_round_trip() {
        let m = msg(encode_register(Pid(5), PortId(2)));
        assert_eq!(
            decode_request(&m),
            Some(Request::Register {
                root: Pid(5),
                reply_port: PortId(2),
                weight_milli: 1_000,
            })
        );
    }

    #[test]
    fn weighted_register_round_trip() {
        let m = msg(encode_register_weighted(Pid(5), PortId(2), 3_000));
        assert_eq!(
            decode_request(&m),
            Some(Request::Register {
                root: Pid(5),
                reply_port: PortId(2),
                weight_milli: 3_000,
            })
        );
        // A zero weight is malformed (it would starve the application).
        let z = msg(encode_register_weighted(Pid(5), PortId(2), 0));
        assert_eq!(decode_request(&z), None);
    }

    #[test]
    fn poll_round_trip() {
        let m = msg(encode_poll(Pid(7), PortId(3)));
        assert_eq!(
            decode_request(&m),
            Some(Request::Poll {
                root: Pid(7),
                reply_port: PortId(3)
            })
        );
    }

    #[test]
    fn bye_round_trip() {
        let m = msg(encode_bye(Pid(1)));
        assert_eq!(decode_request(&m), Some(Request::Bye { root: Pid(1) }));
    }

    #[test]
    fn target_round_trip() {
        let m = msg(encode_target(12));
        assert_eq!(decode_target(&m), Some(12));
    }

    #[test]
    fn malformed_messages_rejected() {
        assert_eq!(decode_request(&msg(vec![])), None);
        assert_eq!(decode_request(&msg(vec![99, 1, 2])), None);
        assert_eq!(decode_request(&msg(vec![OP_REGISTER])), None);
        assert_eq!(decode_target(&msg(vec![OP_POLL, 1])), None);
        // A pid that does not fit in u32 is malformed, not a panic.
        assert_eq!(decode_request(&msg(vec![OP_BYE, u64::MAX])), None);
    }
}
