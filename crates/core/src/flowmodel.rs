//! Taint-transfer model over the API semantic model.
//!
//! The taint engine cannot step into platform/library methods (they are
//! stubs); instead it asks this model which call slots taint which. Precise
//! per-op flows keep slices tight — e.g. `StringBuilder.append` taints the
//! receiver and returns it, `JSONObject.getString` taints only its result —
//! while unmodelled calls fall back to the conservative any-input→output
//! rule.

use crate::semantics::{ApiOp, CalleeTable};
use extractocol_analysis::{ApiFlowModel, ConservativeModel, Slot};
use extractocol_ir::{CalleeId, MethodRef, ProgramIndex};
use std::borrow::Cow;

/// The engine reads each call's flows from the per-analysis table, by
/// reference.
impl ApiFlowModel for CalleeTable {
    fn flows(&self, _prog: &ProgramIndex<'_>, callee: CalleeId) -> Cow<'_, [(Slot, Slot)]> {
        Cow::Borrowed(&self.get(callee).flows)
    }
}

fn args_to(n: usize, to: Slot) -> Vec<(Slot, Slot)> {
    (0..n).map(|i| (Slot::Arg(i), to)).collect()
}

/// The taint flows of a call to `callee` whose op is `op`, resolved once
/// per callee when the [`CalleeTable`] is built.
pub(crate) fn op_flows(op: &ApiOp, callee: &MethodRef) -> Vec<(Slot, Slot)> {
    let n = callee.params.len();
    match op {
        // Constructors: arguments flow into the object being built.
        ApiOp::SbNew
        | ApiOp::ApacheRequestNew(_)
        | ApiOp::UrlNew
        | ApiOp::FormEntityNew
        | ApiOp::NameValuePairNew
        | ApiOp::StringEntityNew
        | ApiOp::VolleyRequestNew
        | ApiOp::GoogleUrlNew
        | ApiOp::JsonNewObj
        | ApiOp::JsonNewArr
        | ApiOp::ListNew
        | ApiOp::MapNew
        | ApiOp::ContentValuesNew => args_to(n, Slot::Receiver),

        // Mutators: arguments into receiver.
        ApiOp::SbAppend => {
            let mut f = args_to(n, Slot::Receiver);
            // append returns `this` for chaining
            f.push((Slot::Receiver, Slot::Return));
            f.extend(args_to(n, Slot::Return));
            f
        }
        ApiOp::SetHeader
        | ApiOp::SetBody
        | ApiOp::SetRequestMethod
        | ApiOp::JsonPut
        | ApiOp::JsonArrayPut
        | ApiOp::ListAdd
        | ApiOp::MapPut
        | ApiOp::ContentValuesPut
        | ApiOp::CellPut(_) => args_to(n, Slot::Receiver),

        // Builder steps: arg into receiver, receiver returned.
        ApiOp::OkUrl | ApiOp::OkHeader | ApiOp::OkMethodBody(_) => {
            let mut f = args_to(n, Slot::Receiver);
            f.push((Slot::Receiver, Slot::Return));
            f.extend(args_to(n, Slot::Return));
            f
        }
        ApiOp::OkGet | ApiOp::OkBuild | ApiOp::OkBuilderNew => {
            vec![(Slot::Receiver, Slot::Return)]
        }

        // Converters: inputs to return value.
        ApiOp::SbToString
        | ApiOp::StrIdentity
        | ApiOp::JsonToString
        | ApiOp::RespEntity
        | ApiOp::RespToString
        | ApiOp::JsonGet(_)
        | ApiOp::JsonArrayGet
        | ApiOp::MapGet
        | ApiOp::ListGet
        | ApiOp::CursorGet
        | ApiOp::XmlGetElements
        | ApiOp::XmlGetAttr
        | ApiOp::XmlGetText
        | ApiOp::DbQuery => {
            let mut f = vec![(Slot::Receiver, Slot::Return)];
            f.extend(args_to(n, Slot::Return));
            f
        }
        ApiOp::StrConcat
        | ApiOp::Stringify
        | ApiOp::StrFormat
        | ApiOp::UrlEncode
        | ApiOp::JsonParse
        | ApiOp::XmlParse
        | ApiOp::ReflectToJson
        | ApiOp::ReflectFromJson
        | ApiOp::OkBodyCreate
        | ApiOp::RetrofitCreate
        | ApiOp::GoogleBuildRequest(_)
        | ApiOp::OkNewCall => {
            let mut f = args_to(n, Slot::Return);
            f.push((Slot::Receiver, Slot::Return));
            // JSONObject.<init>(String) parse form mutates receiver too.
            f.extend(args_to(n, Slot::Receiver));
            f
        }

        // Demarcation points: request data flows through to the
        // response object — this is exactly the flow the pairing
        // analysis traces from URI slices to response slices (§3.3).
        ApiOp::Demarcation(_) => {
            let mut f = args_to(n, Slot::Return);
            f.push((Slot::Receiver, Slot::Return));
            f
        }

        // Reads of independent state, constants, counters.
        ApiOp::ResGetString | ApiOp::CellGet(_) | ApiOp::RespStatus | ApiOp::JsonArrayLen => {
            Vec::new()
        }

        // Origins produce fresh data (seeded explicitly); sinks consume.
        ApiOp::Origin(_) | ApiOp::Sink(_) => Vec::new(),

        ApiOp::Unknown => ConservativeModel::flows_of_arity(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::SemanticModel;
    use extractocol_ir::{ApkBuilder, ProgramIndex, Type, Value};

    /// An app whose one method calls each of `calls` once, as
    /// `(class, name, params, ret)`.
    fn calling(calls: &[(&str, &str, Vec<Type>, Type)]) -> extractocol_ir::Apk {
        let mut b = ApkBuilder::new("t", "t");
        b.class("t.C", |c| {
            c.method("go", vec![], Type::Void, |m| {
                m.recv("t.C");
                for (class, name, params, ret) in calls {
                    let args = params.iter().map(|_| Value::str("x")).collect();
                    m.scall(class, name, args, ret.clone());
                }
                m.ret_void();
            });
        });
        b.build()
    }

    /// The id of the app's callee with `r`'s class and name. The app's
    /// calls pass string constants, so parameter types may differ.
    fn callee_named(prog: &ProgramIndex<'_>, r: &MethodRef) -> Option<CalleeId> {
        (0..prog.callee_count() as u32)
            .map(CalleeId)
            .find(|&c| prog.callee(c).class == r.class && prog.callee(c).name == r.name)
    }

    #[test]
    fn precise_flows_for_modelled_apis() {
        let sb = Type::object("java.lang.StringBuilder");
        let apk = calling(&[
            ("java.lang.StringBuilder", "append", vec![Type::string()], sb.clone()),
            ("org.json.JSONObject", "getString", vec![Type::string()], Type::string()),
            ("android.content.res.Resources", "getString", vec![Type::Int], Type::string()),
        ]);
        let prog = ProgramIndex::new(&apk);
        let model = SemanticModel::standard();
        let fm = CalleeTable::build(&model, &prog);

        let append =
            MethodRef::new("java.lang.StringBuilder", "append", vec![Type::string()], sb.clone());
        let id = |r: &MethodRef| callee_named(&prog, r).expect("the app calls it");
        let flows = fm.flows(&prog, id(&append));
        assert!(matches!(flows, Cow::Borrowed(_)), "read from the table");
        assert!(flows.contains(&(Slot::Arg(0), Slot::Receiver)));
        assert!(flows.contains(&(Slot::Receiver, Slot::Return)));

        // getString: only receiver→return, arg (the key) too, but crucially
        // no receiver mutation.
        let get = MethodRef::new(
            "org.json.JSONObject",
            "getString",
            vec![Type::string()],
            Type::string(),
        );
        let flows = fm.flows(&prog, id(&get));
        assert!(flows.contains(&(Slot::Receiver, Slot::Return)));
        assert!(!flows.iter().any(|(_, to)| *to == Slot::Receiver));

        // Resources.getString carries no taint (constant-valued).
        let res = MethodRef::new(
            "android.content.res.Resources",
            "getString",
            vec![Type::Int],
            Type::string(),
        );
        assert!(fm.flows(&prog, id(&res)).is_empty());
    }

    #[test]
    fn unknown_falls_back_to_conservative() {
        let apk = calling(&[("x.Y", "z", vec![Type::string()], Type::string())]);
        let prog = ProgramIndex::new(&apk);
        let model = SemanticModel::standard();
        let fm = CalleeTable::build(&model, &prog);
        let mystery = MethodRef::new("x.Y", "z", vec![Type::string()], Type::string());
        let id = callee_named(&prog, &mystery).expect("the app calls it");
        let conservative = ConservativeModel.flows(&prog, id);
        assert!(conservative.contains(&(Slot::Arg(0), Slot::Return)));
        assert!(conservative.contains(&(Slot::Receiver, Slot::Return)));
        assert_eq!(fm.flows(&prog, id), conservative);
        assert_eq!(*fm.op(id), ApiOp::Unknown);
        assert!(fm.dp(id).is_none());
        // A callee no call statement names has no id to look up.
        let absent = MethodRef::new(
            "org.json.JSONObject",
            "getString",
            vec![Type::string()],
            Type::string(),
        );
        assert!(callee_named(&prog, &absent).is_none());
    }
}
